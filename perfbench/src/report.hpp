// One workload run's raw results: set-up samples, scalar values, latency
// samples and histograms, operation and failure counts, and run metadata.
// Written as one JSON document; perfbench/run.py turns it into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "recorder.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files a workload keeps on disk (the store journal).
  std::string scratch_dir;
};

/// A seed for one input stream of the workload, derived from the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

[[nodiscard]] double seconds_between(std::int64_t start_ns,
                                     std::int64_t end_ns);

class Report {
 public:
  /// Times `build` kSetupRepetitions times and keeps the last result, so
  /// set-up time is reported as a median of several fresh set-ups.
  template <typename Build>
  auto timed_setup(Build&& build) {
    decltype(build()) kept;
    for (int i = 0; i < kSetupRepetitions; ++i) {
      kept = {};
      const std::int64_t start = now_ns();
      auto built = build();
      setup_seconds_.push_back(seconds_between(start, now_ns()));
      kept = std::move(built);
    }
    return kept;
  }

  void value(const std::string& name, double v) { values_[name] = v; }
  void samples(const std::string& name, std::vector<double> v) {
    samples_[name] = std::move(v);
  }
  LatencyHistogram& histogram(const std::string& name);

  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Counts one failed or wrong operation; keeps the first few messages.
  void fail(const std::string& what);

  /// Fixes peak_rss_mb at the peak so far, the end of the workload proper
  /// (before the checks that follow it allocate their own copies), less
  /// `own_bytes`: the benchmark's own buffers (inputs, references, outputs,
  /// latency histograms), which must be allocated before set-up starts and
  /// live until here, so the figure is what the library itself holds.
  void mark_peak_rss(std::size_t own_bytes);

  void write_json(std::ostream& out, const Options& options) const;

 private:
  static constexpr int kSetupRepetitions = 7;

  std::vector<double> setup_seconds_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  double peak_rss_mb_ = 0.0;
  double own_mb_ = 0.0;
  bool rss_marked_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
