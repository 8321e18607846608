// Analytic GPU cost model for the tiled GEMM kernel family.
//
// Substitutes for timing kernels on real hardware (see DESIGN.md). The model
// combines the first-order mechanisms that determine which configuration
// wins on which shape:
//
//   * tail quantisation — the launch is padded to whole tiles and whole
//     work-groups, so large tiles/work-groups waste lanes on small matrices;
//   * occupancy — accumulator registers per work-item limit resident waves,
//     which limits latency hiding (big tiles hurt small-K, memory-bound
//     shapes more than compute-bound ones);
//   * instruction economy — per-item FMA count is fixed, but loads scale
//     with (rows + cols)/(rows * cols) of the tile and loop overhead with
//     K / acc_size, so big tiles and big accumulator steps save instructions;
//   * memory traffic — per-work-group operand footprints give classic
//     perimeter-vs-area reuse, filtered by the LLC for operands that fit;
//   * coalescing — lanes are laid out row-major with the column dimension
//     fastest, so (64,1)/(128,1) work-groups issue strided A reads;
//   * wave and CU granularity — partially filled waves and CUs idle at the
//     tail of small launches.
//
// `TimingModel` adds deterministic lognormal measurement noise seeded from
// (device, config, shape) so repeated "runs" jitter the way real benchmark
// iterations do, without breaking reproducibility.
#pragma once

#include <cstdint>
#include <span>

#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks::perf {

/// Breakdown of one modelled kernel execution (seconds unless noted).
struct CostBreakdown {
  double compute_s = 0.0;
  double memory_s = 0.0;
  double launch_s = 0.0;
  double total_s = 0.0;
  /// Resident waves per CU after register/group limits.
  double occupancy_waves = 0.0;
  /// Fraction of launched lane-slots doing useful work.
  double lane_utilization = 0.0;
  /// Modelled DRAM traffic in bytes.
  double dram_bytes = 0.0;
  /// Achieved fraction of peak FLOP/s.
  double flops_fraction = 0.0;
};

class CostModel {
 public:
  explicit CostModel(DeviceSpec spec);

  [[nodiscard]] const DeviceSpec& device() const { return spec_; }

  /// Noise-free modelled execution time with full breakdown. Throws
  /// common::Error for a shape breaking gemm::check_shape.
  [[nodiscard]] CostBreakdown evaluate(const gemm::KernelConfig& config,
                                       const gemm::GemmShape& shape) const;

  /// Noise-free modelled execution time in seconds.
  [[nodiscard]] double predict_seconds(const gemm::KernelConfig& config,
                                       const gemm::GemmShape& shape) const;

  /// Modelled time of `batch` identical multiplies issued as one launch:
  /// the per-multiply work replicates but the launch overhead is paid once
  /// and the larger grid improves device fill for small multiplies.
  /// Throws when the stacked row count m·batch overflows size_t.
  [[nodiscard]] double predict_batched_seconds(const gemm::KernelConfig& config,
                                               const gemm::GemmShape& shape,
                                               std::size_t batch) const;

 private:
  DeviceSpec spec_;
};

/// Wraps a CostModel with deterministic measurement noise, emulating the
/// timing harness the paper ran on hardware.
class TimingModel {
 public:
  /// `noise_sigma` is the lognormal sigma of per-run jitter; 0 disables it.
  TimingModel(DeviceSpec spec, double noise_sigma = 0.03,
              std::uint64_t seed = 42);

  [[nodiscard]] const CostModel& model() const { return model_; }
  [[nodiscard]] double noise_sigma() const { return noise_sigma_; }

  /// One simulated timed run (seconds). `iteration` selects independent
  /// noise draws; everything is a pure function of its arguments.
  [[nodiscard]] double time_run(const gemm::KernelConfig& config,
                                const gemm::GemmShape& shape,
                                std::uint64_t iteration = 0) const;

  /// `out.size()` consecutive runs: out[i] = time_run(config, shape,
  /// first_iteration + i), evaluating the cost model once for all of them.
  void time_runs(const gemm::KernelConfig& config,
                 const gemm::GemmShape& shape, std::uint64_t first_iteration,
                 std::span<double> out) const;

  /// Best-of-N timing, the standard benchmarking reduction.
  [[nodiscard]] double best_of(const gemm::KernelConfig& config,
                               const gemm::GemmShape& shape,
                               int iterations) const;

 private:
  CostModel model_;
  double noise_sigma_;
  std::uint64_t seed_;
};

}  // namespace aks::perf
