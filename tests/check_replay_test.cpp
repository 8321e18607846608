// Positive-path coverage of the checked execution mode: real kernels, the
// conv lowerings and a registry slice replay without findings.
#include <gtest/gtest.h>

#include <vector>

#include "check/checked_conv.hpp"
#include "check/checked_gemm.hpp"
#include "common/rng.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"

namespace {

using namespace aks;

TEST(CheckedExecution, RepresentativeConfigsReplayClean) {
  // One config per work-group shape family, on a ragged shape: exercises
  // interior tiles, edge guards and K remainders through the real kernels.
  for (const auto& config_name :
       {"t4x4_a2_wg8x8", "t1x1_a1_wg1x128", "t8x2_a4_wg16x8"}) {
    const auto config = gemm::KernelConfig::parse(config_name);
    const auto result = check::check_gemm(config, {17, 13, 9});
    EXPECT_TRUE(result.clean()) << config_name << ": "
                                << (result.findings.empty()
                                        ? "numeric divergence"
                                        : result.findings[0].format());
    EXPECT_LE(result.max_abs_error, 1e-3);
  }
}

TEST(CheckedExecution, BatchedAndHierarchicalReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  EXPECT_TRUE(check::check_batched_gemm(config, {9, 5, 7}, 3).clean());
  EXPECT_TRUE(check::check_hierarchical_gemm({33, 20, 27}).clean());
}

TEST(CheckedExecution, ConvLoweringsReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  const conv::ConvShape shape = {.batch = 1,
                                 .in_height = 9,
                                 .in_width = 7,
                                 .in_channels = 5,
                                 .out_channels = 6,
                                 .kernel = 3,
                                 .stride = 1,
                                 .padding = 1};
  EXPECT_TRUE(check::check_im2col_conv(config, shape).clean());
  EXPECT_TRUE(check::check_winograd_conv(config, shape).clean());
  EXPECT_TRUE(check::check_winograd4_conv(config, shape).clean());
}

TEST(CheckedExecution, RegistrySubsetSweepIsClean) {
  // The full 640-config sweep runs in CI via the akscheck binary; keep the
  // unit test to a slice so the suite stays fast.
  check::RegistryCheckOptions options;
  options.max_configs = 12;
  options.shapes = {{17, 13, 9}};
  const auto summary = check::check_registry(options);
  EXPECT_EQ(summary.configs_checked, 12u);
  for (const auto& finding : summary.findings) {
    ADD_FAILURE() << finding.format();
  }
  EXPECT_TRUE(summary.clean());
}

/// Runs `config` once through the shipping launch and once through the
/// checked replay on the same operands; returns {shipped C, replayed C}.
std::pair<std::vector<float>, std::vector<float>> shipped_and_replayed(
    const gemm::KernelConfig& config, const gemm::GemmShape& shape,
    std::size_t batch) {
  common::Rng rng(gemm::config_index(config) + batch);
  std::vector<float> a(batch * shape.m * shape.k);
  std::vector<float> b(batch * shape.k * shape.n);
  check::fill_uniform(a, rng);
  check::fill_uniform(b, rng);

  syclrt::Queue queue;
  std::vector<float> shipped(batch * shape.m * shape.n);
  check::AccessMonitor monitor(config.name());
  check::CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  check::CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  check::CheckedBuffer<float> c_buf("C", shipped.size(), monitor);
  syclrt::Queue replay;
  replay.set_deterministic_replay(true);
  if (batch == 1) {
    gemm::launch_gemm(queue, config, a, b, shipped, shape);
    check::launch_checked_gemm(replay, config, a_buf.read(), b_buf.read(),
                               c_buf.write(), shape);
  } else {
    gemm::launch_batched_gemm(queue, config, a, b, shipped, shape, batch);
    check::launch_checked_batched_gemm(replay, config, a_buf.read(),
                                       b_buf.read(), c_buf.write(), shape,
                                       batch);
  }
  EXPECT_TRUE(monitor.clean()) << config.name();
  const auto replayed = c_buf.host();
  return {shipped, std::vector<float>(replayed.begin(), replayed.end())};
}

// The analysed path is the shipped one: for every compiled kernel, the
// shipping launch and the checked replay produce bit-identical C.
TEST(CheckedExecution, ShippedLaunchesMatchCheckedReplayForAll64Kernels) {
  for (int rt : gemm::tile_sizes())
    for (int ct : gemm::tile_sizes())
      for (int acc : gemm::tile_sizes()) {
        const gemm::KernelConfig config{rt, ct, acc, 8, 8};
        const auto [plain, plain_replayed] =
            shipped_and_replayed(config, {17, 13, 9}, 1);
        EXPECT_EQ(plain, plain_replayed) << config.name();
        const auto [batched, batched_replayed] =
            shipped_and_replayed(config, {9, 5, 7}, 3);
        EXPECT_EQ(batched, batched_replayed) << config.name() << " batched";
      }
}

}  // namespace
