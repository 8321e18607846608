#include "check/checked_gemm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "gemm/hierarchical_kernel.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_kernel.hpp"
#include "syclrt/queue.hpp"

namespace aks::check {

namespace {

/// Numerical tolerance against the scalar reference (operands in [-1, 1],
/// K bounded by the corpus; pure float summation-order error).
constexpr double kTolerance = 1e-3;
constexpr std::string_view kDivergence = "output diverges from reference";

/// Deterministic operand seed from the launch parameters (valid for
/// non-canonical configs too, unlike config_index()).
std::uint64_t operand_seed(const gemm::KernelConfig& config,
                           const gemm::GemmShape& shape) {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(config.row_tile),
        static_cast<std::uint64_t>(config.col_tile),
        static_cast<std::uint64_t>(config.acc_size),
        static_cast<std::uint64_t>(config.wg_rows),
        static_cast<std::uint64_t>(config.wg_cols),
        static_cast<std::uint64_t>(shape.m), static_cast<std::uint64_t>(shape.k),
        static_cast<std::uint64_t>(shape.n)}) {
    seed = seed * 0x100000001b3ULL ^ v;
  }
  return seed;
}

}  // namespace

void fill_uniform(std::span<float> out, common::Rng& rng) {
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

CheckResult compare_to_reference(AccessMonitor& monitor,
                                 std::span<const float> actual,
                                 std::span<const float> expected,
                                 double tolerance, const std::string& buffer,
                                 std::string_view divergence) {
  CheckResult result;
  std::size_t worst_index = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double err = std::abs(static_cast<double>(actual[i]) -
                                static_cast<double>(expected[i]));
    if (err > result.max_abs_error) {
      result.max_abs_error = err;
      worst_index = i;
    }
  }
  if (result.max_abs_error > tolerance ||
      !std::isfinite(result.max_abs_error)) {
    result.numerics_ok = false;
    std::ostringstream os;
    os << divergence << " by " << result.max_abs_error << " (tolerance "
       << tolerance << ")";
    monitor.report({.kind = DiagnosticKind::numeric_divergence,
                    .kernel = {},
                    .buffer = buffer,
                    .index = worst_index,
                    .group_a = kNoGroup,
                    .group_b = kNoGroup,
                    .message = os.str()});
  }
  result.findings = monitor.findings();
  result.dropped_findings = monitor.dropped();
  return result;
}

void RegistryCheckSummary::absorb(const CheckResult& result) {
  ++launches;
  dropped_findings += result.dropped_findings;
  max_abs_error = std::max(max_abs_error, result.max_abs_error);
  findings.insert(findings.end(), result.findings.begin(),
                  result.findings.end());
}

syclrt::Event launch_checked_gemm(syclrt::Queue& queue,
                                  const gemm::KernelConfig& config,
                                  CheckedAccessor<const float> a,
                                  CheckedAccessor<const float> b,
                                  CheckedAccessor<float> c,
                                  const gemm::GemmShape& shape) {
  return gemm::launch_tiled(queue, config, a, b, c, shape);
}

syclrt::Event launch_checked_batched_gemm(syclrt::Queue& queue,
                                          const gemm::KernelConfig& config,
                                          CheckedAccessor<const float> a,
                                          CheckedAccessor<const float> b,
                                          CheckedAccessor<float> c,
                                          const gemm::GemmShape& shape,
                                          std::size_t batch) {
  return gemm::launch_tiled_batched(queue, config, a, b, c, shape, batch);
}

CheckResult check_gemm(const gemm::KernelConfig& config,
                       const gemm::GemmShape& shape) {
  const std::string label = config.name() + "@" + shape.to_string();
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed(config, shape));
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(shape.m * shape.n);
  gemm::reference_gemm(a, b, expected, shape);

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  launch_checked_gemm(queue, config, a_buf.read(), b_buf.read(),
                      c_buf.write(), shape);
  return compare_to_reference(monitor, c_buf.host(), expected, kTolerance,
                              "C", kDivergence);
}

CheckResult check_batched_gemm(const gemm::KernelConfig& config,
                               const gemm::GemmShape& shape,
                               std::size_t batch) {
  AKS_CHECK(batch > 0, "batched check needs at least one batch entry");
  const std::string label =
      config.name() + "@" + shape.to_string() + "xB" + std::to_string(batch);
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed(config, shape) ^ batch);
  std::vector<float> a(batch * shape.m * shape.k);
  std::vector<float> b(batch * shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(batch * shape.m * shape.n);
  for (std::size_t bi = 0; bi < batch; ++bi) {
    gemm::reference_gemm(
        std::span<const float>(a).subspan(bi * shape.m * shape.k,
                                          shape.m * shape.k),
        std::span<const float>(b).subspan(bi * shape.k * shape.n,
                                          shape.k * shape.n),
        std::span<float>(expected).subspan(bi * shape.m * shape.n,
                                           shape.m * shape.n),
        shape);
  }

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", batch * shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  launch_checked_batched_gemm(queue, config, a_buf.read(), b_buf.read(),
                              c_buf.write(), shape, batch);
  return compare_to_reference(monitor, c_buf.host(), expected, kTolerance,
                              "C", kDivergence);
}

CheckResult check_hierarchical_gemm(const gemm::GemmShape& shape) {
  const std::string label = "hierarchical_t8@" + shape.to_string();
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed({}, shape) ^ 0x5157ULL);
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(shape.m * shape.n);
  gemm::reference_gemm(a, b, expected, shape);

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  gemm::basic_hierarchical_gemm<8>(queue, a_buf.read(), b_buf.read(),
                                   c_buf.write(), shape);
  return compare_to_reference(monitor, c_buf.host(), expected, kTolerance,
                              "C", kDivergence);
}

std::vector<gemm::GemmShape> default_shape_corpus() {
  return {
      {16, 16, 16},  // aligned interior tiles for every config
      {17, 13, 9},   // ragged in all three dimensions (K remainders)
      {33, 20, 27},  // interior + edge tiles in the same launch
      {5, 7, 3},     // smaller than most tiles: edge path everywhere
      {1, 40, 1},    // degenerate row/column with long K
  };
}

RegistryCheckSummary check_registry(const RegistryCheckOptions& options) {
  RegistryCheckSummary summary;
  const std::vector<gemm::GemmShape> shapes =
      options.shapes.empty() ? default_shape_corpus() : options.shapes;

  const auto& configs = gemm::enumerate_configs();
  std::size_t limit = configs.size();
  if (options.max_configs > 0 && options.max_configs < limit) {
    limit = options.max_configs;
  }

  for (std::size_t i = 0; i < limit; ++i) {
    const gemm::KernelConfig& config = configs[i];
    ++summary.configs_checked;
    for (const auto& shape : shapes) {
      summary.absorb(check_gemm(config, shape));
    }
    // The batched kernel shares the compiled instantiation; replay it once
    // per config on a small ragged batch.
    summary.absorb(check_batched_gemm(config, {9, 5, 7}, 3));
  }
  for (const auto& shape : shapes) {
    summary.absorb(check_hierarchical_gemm(shape));
  }
  return summary;
}

}  // namespace aks::check
