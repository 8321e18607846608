// The benchmark harness that builds the tuning dataset.
//
// Mirrors the paper's data collection: "For each of these sizes we ran a
// benchmark for each of the kernel configurations, recording the runtime of
// the kernel and number of flops attained over a number of iterations."
// Two backends are provided:
//
//  * model mode — each (shape, config) run is timed by the perfmodel
//    TimingModel (best-of-N with deterministic noise). This is the mode the
//    shipped dataset uses; see DESIGN.md for the hardware substitution.
//    Every cell goes through one measurement path: samples more than 2x
//    from their window's median are dropped and the minimum of the rest is
//    kept; a window in which most samples failed, came back NaN or left the
//    band is re-measured, and a cell or row that cannot be measured falls
//    back to the analytic model. Fault-free, no sample leaves the 2x band,
//    so a cell equals TimingModel::best_of bit for bit; the same path
//    absorbs injected faults (src/faults).
//  * host mode — the configuration's kernel is actually executed on the
//    syclrt host runtime and wall-clock timed. Used for correctness-scale
//    problems and the kernel microbenchmarks, not the full sweep.
#pragma once

#include <cstdint>
#include <functional>

#include "common/metrics.hpp"
#include "dataset/extract.hpp"
#include "dataset/perf_dataset.hpp"
#include "perfmodel/cost_model.hpp"

namespace aks::data {

struct RunnerOptions {
  /// Timed iterations per (shape, config) window; the best sample within
  /// the outlier band is kept.
  int iterations = 5;
  /// Lognormal sigma of the simulated measurement noise.
  double noise_sigma = 0.03;
  /// Seed for the noise streams.
  std::uint64_t seed = 42;
  /// Progress callback, called after each completed shape row. Rows finish
  /// on pool worker threads, but invocations are serialized by the runner
  /// (an internal mutex), so the callback may write to a stream without its
  /// output interleaving. `done` is the completion count at call time and
  /// is strictly increasing across the serialized calls.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Optional sink for the robustness counters: runner.launch_failures,
  /// runner.hangs, runner.timing_nans, runner.outliers_rejected,
  /// runner.retries, runner.cells_fell_back, runner.rows_corrupted,
  /// runner.rows_repaired. Must outlive the run.
  common::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one robustly measured (shape, config) cell.
struct CellMeasurement {
  /// Aggregated execution time; always finite and positive.
  double seconds = 0.0;
  /// Measurement attempts consumed (1 = no retry needed).
  int attempts = 0;
  /// Injected faults survived while measuring.
  int launch_failures = 0;
  int hangs = 0;
  int nan_samples = 0;
  int outliers_rejected = 0;
  /// True when every attempt failed and the analytic noise-free model value
  /// was used instead (the measurement layer's last-ditch degradation).
  bool fell_back = false;
};

/// Robustly measures one (shape, config) cell against the timing model:
/// the minimum of the samples within 2x of their window's median, with the
/// window re-measured while most of it was lost to launch failures, hangs,
/// NaNs or outliers. Equals
/// TimingModel::best_of(config, shape, iterations) when no fault fires.
/// Deterministic for a fixed fault plan: fault decisions are keyed on
/// (shape, config, attempt), never on thread identity. run_model_benchmarks
/// measures every cell this way.
[[nodiscard]] CellMeasurement measure_cell_robust(
    const perf::TimingModel& timing, const gemm::KernelConfig& config,
    const gemm::GemmShape& shape, const RunnerOptions& options = {});

/// Runs the full (shapes x 640 configs) sweep against the timing model for
/// `device` and returns the assembled dataset.
[[nodiscard]] PerfDataset run_model_benchmarks(
    const std::vector<LoweredGemm>& shapes, const perf::DeviceSpec& device,
    const RunnerOptions& options = {});

/// Convenience: extract the paper's shape set and sweep it on the paper's
/// device model (AMD R9 Nano).
[[nodiscard]] PerfDataset build_paper_dataset(
    const RunnerOptions& options = {},
    const ExtractionOptions& extraction = {});

/// Executes one (shape, config) run on the host runtime and returns
/// wall-clock seconds. Intended for small shapes.
[[nodiscard]] double time_host_run(const gemm::KernelConfig& config,
                                   const gemm::GemmShape& shape);

}  // namespace aks::data
