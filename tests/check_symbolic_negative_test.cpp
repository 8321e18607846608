// Planted-defect coverage for the symbolic access verifier: each test breaks
// one property of a kernel access summary (edge clamp, K-tail clamp, write
// slicing, read slicing, shape guard, batch slicing, device capacity) and
// asserts the verifier reports UNSAFE with the right rule, diagnostic class
// and a concrete counterexample shape. The property tests then *replay* a toy
// kernel with the matching defect at that counterexample shape through the
// dynamic checked-replay layer and assert it really fails with the same
// diagnostic kind — symbolic counterexamples are executable, not theoretical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "check/checked_buffer.hpp"
#include "check/checked_gemm.hpp"
#include "check/diagnostics.hpp"
#include "check/symbolic/access_summary.hpp"
#include "check/symbolic/verifier.hpp"
#include "gemm/access_metadata.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"
#include "syclrt/queue.hpp"

namespace {

using namespace aks;
namespace sym = aks::check::symbolic;
using check::AccessMonitor;
using check::CheckedBuffer;
using check::DiagnosticKind;

bool has_kind(const AccessMonitor& monitor, DiagnosticKind kind) {
  return std::any_of(
      monitor.findings().begin(), monitor.findings().end(),
      [kind](const check::Diagnostic& d) { return d.kind == kind; });
}

syclrt::Queue replay_queue() {
  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  return queue;
}

/// First finding with the given rule; fails the test when absent.
const sym::SymbolicFinding* find_rule(const sym::VerifyResult& result,
                                      std::string_view rule) {
  for (const auto& finding : result.findings) {
    if (finding.rule == rule) return &finding;
  }
  return nullptr;
}

gemm::KernelAccessPattern base_pattern() {
  return gemm::tiled_access_pattern(gemm::KernelConfig::parse("t4x4_a1_wg8x8"));
}

// --- out-of-bounds: missing edge clamp --------------------------------------

TEST(SymbolicNegative, UnclampedEdgePathIsUnsafeOutOfBounds) {
  auto pattern = base_pattern();
  pattern.edge_clamped = false;  // planted defect: no min(tile_end, shape)
  const auto result =
      sym::verify_access_summary(sym::summarize_tiled_gemm(pattern));
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleOob);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::out_of_bounds);
  EXPECT_EQ(finding->verdict, sym::Verdict::unsafe);

  // Property: the counterexample shape is executable. A toy kernel with the
  // same missing clamp, replayed at exactly that shape, goes out of bounds.
  const auto w = finding->witness;
  const auto m = static_cast<std::size_t>(w.m);
  const auto k = static_cast<std::size_t>(w.k);
  const auto n = static_cast<std::size_t>(w.n);
  AccessMonitor monitor("toy_unclamped_edge");
  CheckedBuffer<float> a("A", m * k, monitor, 1.0f);
  CheckedBuffer<float> b("B", k * n, monitor, 1.0f);
  CheckedBuffer<float> c("C", m * n, monitor);
  auto queue = replay_queue();
  auto aacc = a.read();
  auto bacc = b.read();
  auto cacc = c.write();
  const std::size_t tiles_r = (m + 3) / 4;
  const std::size_t tiles_c = (n + 3) / 4;
  queue.parallel_for(
      syclrt::NdRange<2>(syclrt::Range<2>(tiles_r, tiles_c),
                         syclrt::Range<2>(1, 1)),
      [aacc, bacc, cacc, m, k, n](const syclrt::NdItem<2>& item) {
        const std::size_t row0 = item.get_global_id(0) * 4;
        const std::size_t col0 = item.get_global_id(1) * 4;
        if (row0 >= m || col0 >= n) return;
        for (std::size_t r = 0; r < 4; ++r) {    // no edge clamp
          for (std::size_t cc = 0; cc < 4; ++cc) {
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
              acc += aacc[(row0 + r) * k + kk] * bacc[kk * n + col0 + cc];
            }
            cacc[(row0 + r) * n + col0 + cc] = acc;
          }
        }
      });
  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::out_of_bounds));
}

// --- out-of-bounds: unclamped accumulator tail ------------------------------

TEST(SymbolicNegative, UnclampedAccumulatorTailIsUnsafeOutOfBounds) {
  auto pattern = gemm::tiled_access_pattern(
      gemm::KernelConfig::parse("t1x1_a4_wg8x8"));
  pattern.k_tail_clamped = false;  // full AccSize step past K
  const auto result =
      sym::verify_access_summary(sym::summarize_tiled_gemm(pattern));
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleOob);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::out_of_bounds);
  // The counterexample must be a K that a whole accumulator step overruns.
  EXPECT_NE(finding->witness.k % 4, 0);

  const auto w = finding->witness;
  const auto m = static_cast<std::size_t>(w.m);
  const auto k = static_cast<std::size_t>(w.k);
  const auto n = static_cast<std::size_t>(w.n);
  AccessMonitor monitor("toy_unclamped_ktail");
  CheckedBuffer<float> a("A", m * k, monitor, 1.0f);
  CheckedBuffer<float> c("C", m * n, monitor);
  auto queue = replay_queue();
  auto aacc = a.read();
  auto cacc = c.write();
  queue.parallel_for(
      syclrt::NdRange<2>(syclrt::Range<2>(m, n), syclrt::Range<2>(1, 1)),
      [aacc, cacc, m, k, n](const syclrt::NdItem<2>& item) {
        const std::size_t row = item.get_global_id(0);
        const std::size_t col = item.get_global_id(1);
        if (row >= m || col >= n) return;
        float acc = 0.0f;
        for (std::size_t k0 = 0; k0 < k; k0 += 4) {
          for (std::size_t s = 0; s < 4; ++s) {  // no k_end clamp
            acc += aacc[row * k + k0 + s];
          }
        }
        cacc[row * n + col] = acc;
      });
  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::out_of_bounds));
}

// --- write/write race: write not sliced to the tile -------------------------

TEST(SymbolicNegative, UnslicedWriteIsUnsafeWriteWriteRace) {
  auto pattern = base_pattern();
  // One-item work-groups so every tile is its own group: any cross-item
  // overlap the symbolic layer reports is a cross-group conflict on replay.
  pattern.wg_rows = pattern.wg_cols = 1;
  auto summary = sym::summarize_tiled_gemm(pattern);
  // Planted defect: the C store spans the whole row instead of the tile.
  summary.regions[2].cols =
      sym::Extent::range(sym::AffineExpr::constant(0), sym::sym_n());
  const auto result = sym::verify_access_summary(summary);
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleOverlapWw);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::write_write_race);
  EXPECT_EQ(finding->buffer, "C");

  const auto w = finding->witness;
  const auto m = static_cast<std::size_t>(w.m);
  const auto n = static_cast<std::size_t>(w.n);
  // The counterexample needs at least two column tiles to collide.
  ASSERT_GT(n, 4u);
  AccessMonitor monitor("toy_unsliced_write");
  CheckedBuffer<float> c("C", m * n, monitor);
  auto queue = replay_queue();
  auto cacc = c.write();
  const std::size_t tiles_r = (m + 3) / 4;
  const std::size_t tiles_c = (n + 3) / 4;
  queue.parallel_for(
      syclrt::NdRange<2>(syclrt::Range<2>(tiles_r, tiles_c),
                         syclrt::Range<2>(1, 1)),
      [cacc, m, n](const syclrt::NdItem<2>& item) {
        const std::size_t row0 = item.get_global_id(0) * 4;
        if (row0 >= m) return;
        const std::size_t row_end = std::min(row0 + 4, m);
        for (std::size_t r = row0; r < row_end; ++r) {
          for (std::size_t j = 0; j < n; ++j) {  // whole row, not the tile
            cacc[r * n + j] = 1.0f;
          }
        }
      });
  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::write_write_race));
}

// --- read/write race: read not sliced to the tile ---------------------------

TEST(SymbolicNegative, UnslicedReadOfWrittenBufferIsUnsafeReadWriteRace) {
  auto pattern = base_pattern();
  pattern.wg_rows = pattern.wg_cols = 1;
  auto summary = sym::summarize_tiled_gemm(pattern);
  // Planted defect: C is read back across all rows, not just the item's own
  // tile — another item's in-flight store is observable.
  sym::AccessRegion read = summary.regions[2];
  read.is_write = false;
  read.rows = sym::Extent::range(sym::AffineExpr::constant(0), sym::sym_m());
  summary.regions.push_back(read);
  const auto result = sym::verify_access_summary(summary);
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleOverlapRw);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::read_write_race);
  EXPECT_EQ(finding->buffer, "C");

  // Property: a toy kernel that writes its own slot and reads another
  // group's slot races at the counterexample shape.
  const auto w = finding->witness;
  const std::size_t size = static_cast<std::size_t>(w.m * w.n);
  ASSERT_GT(size, 1u);
  AccessMonitor monitor("toy_unsliced_read");
  CheckedBuffer<float> c("C", size, monitor);
  auto queue = replay_queue();
  auto cacc = c.write();
  auto racc = c.read();
  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(size), syclrt::Range<1>(1)),
      [cacc, racc, size](const syclrt::NdItem<1>& item) {
        const std::size_t i = item.get_global_id(0);
        cacc[i] = static_cast<float>(i);
        (void)racc[(i + 1) % size];
      });
  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::read_write_race));
}

// --- unguarded tail ---------------------------------------------------------

TEST(SymbolicNegative, UnguardedScheduleIsUnsafeTail) {
  auto pattern = base_pattern();
  pattern.shape_guarded = false;  // planted defect: no early-return guard
  const auto result =
      sym::verify_access_summary(sym::summarize_tiled_gemm(pattern));
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleTail);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::tail_unguarded);

  // Property: at the witness shape the padded launch contains out-of-range
  // items; the clamped-but-unguarded toy kernel still stages B from them.
  const auto w = finding->witness;
  const auto m = static_cast<std::size_t>(w.m);
  const auto k = static_cast<std::size_t>(w.k);
  const auto n = static_cast<std::size_t>(w.n);
  AccessMonitor monitor("toy_unguarded_tail");
  CheckedBuffer<float> b("B", k * n, monitor, 1.0f);
  CheckedBuffer<float> c("C", m * n, monitor);
  auto queue = replay_queue();
  auto bacc = b.read();
  auto cacc = c.write();
  const std::size_t tiles_r = (m + 3) / 4;
  const std::size_t tiles_c = (n + 3) / 4;
  queue.parallel_for(
      syclrt::NdRange<2>(syclrt::Range<2>(tiles_r, tiles_c),
                         syclrt::Range<2>(8, 8)),
      [bacc, cacc, m, k, n](const syclrt::NdItem<2>& item) {
        // Defect: neither in_range() nor the shape guard is consulted. The
        // accesses stay clamped, so padded items touch in-bounds memory —
        // the tail_unguarded class, not out_of_bounds.
        const std::size_t row0 = item.get_global_id(0) * 4;
        const std::size_t col0 = item.get_global_id(1) * 4;
        const std::size_t col_end = std::min(col0 + 4, n);
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          for (std::size_t cc = col0; cc < col_end; ++cc) {
            acc += bacc[kk * n + cc];
          }
        }
        const std::size_t row_end = std::min(row0 + 4, m);
        for (std::size_t r = row0; r < row_end; ++r) {
          for (std::size_t cc = col0; cc < col_end; ++cc) {
            cacc[r * n + cc] = acc;
          }
        }
      });
  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::tail_unguarded));
  EXPECT_FALSE(has_kind(monitor, DiagnosticKind::out_of_bounds));
}

// --- batched launch without per-entry slicing -------------------------------

TEST(SymbolicNegative, BatchedWriteWithoutSlicingIsUnsafe) {
  auto summary = sym::summarize_batched_tiled_gemm(base_pattern());
  summary.buffers[2].batch_sliced = false;  // C shared across entries
  const auto result = sym::verify_access_summary(summary);
  EXPECT_EQ(result.verdict, sym::Verdict::unsafe);
  const auto* finding = find_rule(result, sym::kRuleOverlapWw);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->kind, DiagnosticKind::write_write_race);
  // Two batch entries suffice to collide.
  EXPECT_EQ(finding->witness.batch, 2);
}

// --- capacity rules ---------------------------------------------------------

TEST(SymbolicNegative, WorkGroupCapacityViolationIsReported) {
  auto summary = sym::summarize_tiled_gemm(base_pattern());
  summary.work_group_size = 1024;  // over every shipped device's 256 limit
  for (const auto& device : perf::DeviceSpec::shipped()) {
    const auto findings = sym::check_capacity(summary, device);
    ASSERT_FALSE(findings.empty()) << device.name;
    EXPECT_EQ(findings[0].rule, sym::kRuleCapacityWg);
    EXPECT_EQ(findings[0].kind, DiagnosticKind::invalid_config);
    EXPECT_EQ(findings[0].verdict, sym::Verdict::unsafe);
  }
}

TEST(SymbolicNegative, LocalMemoryCapacityViolationIsReported) {
  auto summary = sym::summarize_tiled_gemm(base_pattern());
  summary.local_memory_bytes = 1u << 20;  // 1 MiB: over every shipped device
  for (const auto& device : perf::DeviceSpec::shipped()) {
    const auto findings = sym::check_capacity(summary, device);
    ASSERT_FALSE(findings.empty()) << device.name;
    EXPECT_EQ(findings[0].rule, sym::kRuleCapacityLocalMem);
  }
  // A scratchpad-poor device variant rejects a real shipped config.
  const auto config = gemm::KernelConfig::parse("t8x8_a8_wg16x16");
  perf::DeviceSpec tiny = perf::DeviceSpec::embedded_accelerator();
  tiny.local_memory_bytes = 1024;
  tiny.max_work_group_size = 4096;  // isolate the local-memory rule
  const auto symbolic = sym::check_capacity(
      sym::summarize_tiled_gemm(gemm::tiled_access_pattern(config)), tiny);
  ASSERT_FALSE(symbolic.empty());
  EXPECT_EQ(symbolic[0].rule, sym::kRuleCapacityLocalMem);
}

TEST(SymbolicNegative, VectorWidthCapacityViolationIsReported) {
  // A column tile of 6 leaves a 2-wide tail against the 4-wide native
  // vector: the staged store width fails vector_tail_ok.
  gemm::KernelConfig config;
  config.col_tile = 6;
  const auto device = perf::DeviceSpec::integrated_gpu();
  EXPECT_FALSE(sym::vector_tail_ok(6, device.vector_width));

  const auto symbolic = sym::check_capacity(
      sym::summarize_tiled_gemm(gemm::tiled_access_pattern(config)), device);
  ASSERT_FALSE(symbolic.empty());
  EXPECT_EQ(symbolic[0].rule, sym::kRuleCapacityVector);
  EXPECT_EQ(symbolic[0].kind, DiagnosticKind::invalid_config);
}

// --- UNKNOWN: unproved, no counterexample — escalates to replay -------------

TEST(SymbolicNegative, UnprovableGuardedRegionIsUnknownAndEscalates) {
  auto summary = sym::summarize_tiled_gemm(base_pattern());
  // A read of C across all rows, but only "active" when the tile origins
  // sum past 10^6 — far outside the witness family. The slicing obligation
  // fails to prove (the prover cannot absorb a two-origin precondition) and
  // no small shape exhibits it: the honest verdict is UNKNOWN.
  sym::AccessRegion read = summary.regions[2];
  read.is_write = false;
  read.rows = sym::Extent::range(sym::AffineExpr::constant(0), sym::sym_m());
  read.preconditions = {sym::sym_row0() + sym::sym_col0() - 1000000};
  summary.regions.push_back(read);

  const auto result = sym::verify_access_summary(summary);
  EXPECT_EQ(result.verdict, sym::Verdict::unknown);
  const auto* finding = find_rule(result, sym::kRuleOverlapRw);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->verdict, sym::Verdict::unknown);
  ASSERT_FALSE(result.replay_candidates.empty());

  // The escalation path: replay candidates run through the dynamic checker.
  // The real kernel is clean there, which is what certify_space records.
  const auto& shape = result.replay_candidates.front();
  const auto replay = check::check_gemm(
      gemm::KernelConfig::parse("t4x4_a1_wg8x8"),
      gemm::GemmShape{static_cast<std::size_t>(shape.m),
                      static_cast<std::size_t>(shape.k),
                      static_cast<std::size_t>(shape.n)});
  EXPECT_TRUE(replay.clean());
}

// --- diagnostics bridge -----------------------------------------------------

TEST(SymbolicNegative, FindingsBridgeToSubsystemDiagnostics) {
  auto pattern = base_pattern();
  pattern.edge_clamped = false;
  const auto result =
      sym::verify_access_summary(sym::summarize_tiled_gemm(pattern));
  const auto* finding = find_rule(result, sym::kRuleOob);
  ASSERT_NE(finding, nullptr);
  const auto diagnostic = finding->to_diagnostic("TiledGemmKernel");
  EXPECT_EQ(diagnostic.kind, DiagnosticKind::out_of_bounds);
  EXPECT_EQ(diagnostic.kernel, "TiledGemmKernel");
  EXPECT_NE(diagnostic.message.find("[symbolic-oob]"), std::string::npos);
  EXPECT_NE(diagnostic.message.find("counterexample"), std::string::npos);
}

}  // namespace
