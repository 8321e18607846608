#include "dataset/benchmark_runner.hpp"

#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "faults/injector.hpp"
#include "gemm/registry.hpp"
#include "syclrt/queue.hpp"

namespace aks::data {

namespace {

/// Extra measurement attempts per cell, and per row for corrupt-row
/// recovery, when faults leave too few valid samples.
constexpr int kMaxRetries = 3;
/// Samples further than this factor from their window's median are
/// outliers. Fault-free noise (sigma 0.03) never gets near it; injected
/// timing outliers are at least 4x off.
constexpr double kOutlierBand = 2.0;

// Counters shared across the worker threads of one run, flushed into the
// caller's MetricsRegistry at the end (a run is one logical operation; the
// registry sees totals, not per-row noise).
struct RunnerCounters {
  std::atomic<std::uint64_t> launch_failures{0};
  std::atomic<std::uint64_t> hangs{0};
  std::atomic<std::uint64_t> timing_nans{0};
  std::atomic<std::uint64_t> outliers_rejected{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> cells_fell_back{0};
  std::atomic<std::uint64_t> rows_corrupted{0};
  std::atomic<std::uint64_t> rows_repaired{0};

  void flush(common::MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    metrics->counter("runner.launch_failures").add(launch_failures.load());
    metrics->counter("runner.hangs").add(hangs.load());
    metrics->counter("runner.timing_nans").add(timing_nans.load());
    metrics->counter("runner.outliers_rejected").add(outliers_rejected.load());
    metrics->counter("runner.retries").add(retries.load());
    metrics->counter("runner.cells_fell_back").add(cells_fell_back.load());
    metrics->counter("runner.rows_corrupted").add(rows_corrupted.load());
    metrics->counter("runner.rows_repaired").add(rows_repaired.load());
  }
};

std::uint64_t cell_key(const gemm::GemmShape& shape, std::size_t config_index,
                       int attempt) {
  return faults::mix_key(shape.m, shape.k, shape.n,
                         static_cast<std::uint64_t>(config_index),
                         static_cast<std::uint64_t>(attempt));
}

/// Measures one cell. `samples` is caller-owned scratch, reused across the
/// cells of a row so the per-cell path does not allocate.
CellMeasurement measure_cell(const perf::TimingModel& timing,
                             const gemm::KernelConfig& config,
                             std::size_t config_index,
                             const gemm::GemmShape& shape, int iterations,
                             std::vector<double>& samples,
                             RunnerCounters* counters) {
  CellMeasurement result;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    result.attempts = attempt + 1;
    if (attempt > 0 && counters != nullptr) counters->retries.fetch_add(1);
    faults::FaultScope scope(
        faults::site_bit(faults::Site::kKernelLaunch) |
            faults::site_bit(faults::Site::kHostTiming),
        cell_key(shape, config_index, attempt));
    // Time the whole window, then drop the runs a fault claimed; the
    // survivors are compacted to the front of `samples`.
    samples.resize(static_cast<std::size_t>(iterations));
    timing.time_runs(
        config, shape,
        static_cast<std::uint64_t>(attempt) * samples.size(), samples);
    std::size_t valid = 0;
    for (const double run : samples) {
      try {
        faults::maybe_inject_launch_fault();
      } catch (const faults::LaunchFailure&) {
        ++result.launch_failures;
        if (counters != nullptr) counters->launch_failures.fetch_add(1);
        continue;
      } catch (const faults::DeadlineExceeded&) {
        ++result.hangs;
        if (counters != nullptr) counters->hangs.fetch_add(1);
        continue;
      }
      double t = run;
      if (const auto fault = faults::probe(faults::Site::kHostTiming)) {
        if (fault.kind == faults::FaultKind::kTimingOutlier) {
          t *= fault.magnitude;
        } else if (fault.kind == faults::FaultKind::kTimingNan) {
          t = std::numeric_limits<double>::quiet_NaN();
        }
      }
      if (std::isfinite(t) && t > 0.0) {
        samples[valid++] = t;
      } else {
        ++result.nan_samples;
        if (counters != nullptr) counters->timing_nans.fetch_add(1);
      }
    }
    samples.resize(valid);
    if (samples.empty()) continue;
    std::size_t rejected = 0;
    result.seconds = common::min_within_band(samples, kOutlierBand, &rejected);
    result.outliers_rejected += static_cast<int>(rejected);
    // Keep retrying while a majority of the window was lost (failed, NaN or
    // outside the band): when most samples are faulted the median itself
    // may be an outlier, so the window is not trustworthy.
    const std::size_t kept = samples.size() - rejected;
    if (kept * 2 > static_cast<std::size_t>(iterations)) break;
  }
  if (counters != nullptr && result.outliers_rejected > 0) {
    counters->outliers_rejected.fetch_add(
        static_cast<std::uint64_t>(result.outliers_rejected));
  }
  if (result.seconds <= 0.0) {
    // Degradation of last resort: no attempt kept a sample, so fall back to
    // the analytic noise-free prior rather than poisoning the dataset with
    // a NaN or aborting a 100k-cell sweep for one dead cell.
    result.fell_back = true;
    if (counters != nullptr) counters->cells_fell_back.fetch_add(1);
    result.seconds = timing.model().predict_seconds(config, shape);
  }
  return result;
}

/// Applies an injected corrupt-row fault: deterministically NaNs a spread
/// of cells, emulating a damaged CSV record / DMA'd row.
void corrupt_row(common::Matrix& times, std::size_t row, std::uint64_t key) {
  const std::size_t cols = times.cols();
  const std::size_t stride = 1 + faults::mix_key(key, 0x5eed) % 17;
  for (std::size_t c = faults::mix_key(key, 0xc0de) % stride; c < cols;
       c += stride) {
    times(row, c) = std::numeric_limits<double>::quiet_NaN();
  }
}

bool row_valid(const common::Matrix& times, std::size_t row) {
  for (std::size_t c = 0; c < times.cols(); ++c) {
    const double t = times(row, c);
    if (!std::isfinite(t) || t <= 0.0) return false;
  }
  return true;
}

}  // namespace

CellMeasurement measure_cell_robust(const perf::TimingModel& timing,
                                    const gemm::KernelConfig& config,
                                    const gemm::GemmShape& shape,
                                    const RunnerOptions& options) {
  AKS_CHECK(options.iterations > 0, "need at least one iteration");
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(options.iterations));
  return measure_cell(timing, config, gemm::config_index(config), shape,
                      options.iterations, samples, nullptr);
}

PerfDataset run_model_benchmarks(const std::vector<LoweredGemm>& shapes,
                                 const perf::DeviceSpec& device,
                                 const RunnerOptions& options) {
  AKS_CHECK(!shapes.empty(), "no shapes to benchmark");
  AKS_CHECK(options.iterations > 0, "need at least one iteration");
  const auto& configs = gemm::enumerate_configs();
  const perf::TimingModel timing(device, options.noise_sigma, options.seed);
  RunnerCounters counters;

  common::Matrix times(shapes.size(), configs.size());
  std::atomic<std::size_t> done{0};
  // Workers finish rows concurrently; the progress callback is serialized
  // under a mutex so user code (typically stream output) never interleaves.
  aks::Mutex progress_mutex{"dataset.progress"};
  common::ThreadPool::global().parallel_for(
      shapes.size(), [&](std::size_t r) {
        const gemm::GemmShape& shape = shapes[r].shape;
        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(options.iterations));
        const auto measure = [&](std::size_t c) {
          return measure_cell(timing, configs[c], c, shape, options.iterations,
                              samples, &counters)
              .seconds;
        };
        for (std::size_t c = 0; c < configs.size(); ++c) {
          times(r, c) = measure(c);
        }
        // Corrupt-row faults damage the assembled record *after*
        // measurement (a truncated CSV write, a bit-flipped buffer).
        // Recovery: re-measure the damaged cells, re-probe; after
        // kMaxRetries, repair survivors from the analytic prior so a
        // non-finite row never ships.
        const std::uint64_t row_key =
            faults::mix_key(shape.m, shape.k, shape.n, 0xdadaULL);
        for (int row_attempt = 0;; ++row_attempt) {
          {
            faults::FaultScope scope(
                faults::site_bit(faults::Site::kDatasetRow),
                faults::mix_key(row_key,
                                static_cast<std::uint64_t>(row_attempt)));
            if (const auto fault = faults::probe(faults::Site::kDatasetRow);
                fault.kind == faults::FaultKind::kCorruptRow) {
              corrupt_row(times, r, scope.key());
              counters.rows_corrupted.fetch_add(1);
            }
          }
          if (row_valid(times, r)) break;
          const bool out_of_retries = row_attempt >= kMaxRetries;
          for (std::size_t c = 0; c < configs.size(); ++c) {
            const double t = times(r, c);
            if (std::isfinite(t) && t > 0.0) continue;
            times(r, c) =
                out_of_retries
                    ? timing.model().predict_seconds(configs[c], shape)
                    : measure(c);
          }
          if (out_of_retries) {
            counters.rows_repaired.fetch_add(1);
            break;
          }
          counters.retries.fetch_add(1);
        }
        if (options.progress) {
          aks::MutexLock lock(progress_mutex);
          const std::size_t d =
              done.fetch_add(1, std::memory_order_relaxed) + 1;
          options.progress(d, shapes.size());
        } else {
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
  counters.flush(options.metrics);
  return PerfDataset(shapes, std::move(times));
}

PerfDataset build_paper_dataset(const RunnerOptions& options,
                                const ExtractionOptions& extraction) {
  return run_model_benchmarks(extract_all_shapes(extraction),
                              perf::DeviceSpec::amd_r9_nano(), options);
}

double time_host_run(const gemm::KernelConfig& config,
                     const gemm::GemmShape& shape) {
  // Deterministic input data; contents do not affect timing meaningfully
  // but keep the kernels honest (no denormal or NaN shortcuts).
  common::Rng rng(7);
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  std::vector<float> c(shape.m * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  syclrt::Queue queue;
  const auto event = gemm::launch_gemm(queue, config, a, b, c, shape);
  return event.elapsed_seconds;
}

}  // namespace aks::data
