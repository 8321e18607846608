// Online (dynamic) kernel tuning — the strategy the paper's introduction
// attributes to ML frameworks: "doing trial runs the first time an input
// size is used and choosing the best for subsequent runs".
//
// The tuner holds a candidate configuration set (typically a pruned set).
// The first request for a shape times every candidate through the supplied
// timing function and caches the winner; later requests hit the cache. This
// is the baseline a learned selector competes with: zero selection error
// asymptotically, but a warm-up cost of |candidates| trial runs per novel
// shape — exactly the trade-off bench/ablation_online_vs_learned measures.
//
// Degradation contract (see DESIGN.md "Fault model"): a trial that throws
// (launch failure, hang killed at the deadline) or returns a non-finite /
// non-positive time is *not* an error of select(). Only such a trial is
// retried, up to OnlineTuner::kTrialAttempts; the first valid time settles
// the candidate, so a healthy candidate costs exactly one timer call per
// sweep whether or not a fault plan is installed. A candidate whose sweeps
// keep failing is quarantined after quarantine_threshold consecutive
// sweep-level failures and skipped from then on (so a kernel that cannot
// launch stops burning warm-up budget and can never win); and when every
// candidate of a sweep fails, select() returns the guaranteed fallback
// configuration — the first candidate, which is immune to quarantine —
// instead of throwing. select() never throws on a degraded zoo. Faults are
// drawn at Site::kWarmUpTrial / Site::kKernelLaunch (the trial arms both),
// keyed on (shape, candidate, attempt) so fault sequences replay
// bit-identically.
//
// Thread safety: select() may be called concurrently. Cache lookups take a
// shared lock; the trial sweep runs unlocked and the first finished sweep
// for a shape wins (every caller returns that winner, so results are
// consistent across threads). Two threads racing on the same cold shape may
// both run the sweep — each counts a miss and its trial time, so the stats
// keep reporting work actually done. The serving layer
// (serve::SelectionService) adds single-flight coalescing on top when
// duplicate sweeps must not happen at all. Single-threaded behaviour —
// including the hits/misses/trial_seconds accounting — is unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"

namespace aks::select {

struct TunerOptions {
  /// Consecutive failed sweeps (no valid trial for the candidate in a
  /// select() sweep) before a candidate is quarantined. 0 disables
  /// quarantine.
  std::size_t quarantine_threshold = 3;
};

class OnlineTuner {
 public:
  /// Times one run of `config` on `shape`, returning seconds. May throw and
  /// may return garbage under fault injection; the tuner owns recovery.
  using TimerFn =
      std::function<double(const gemm::KernelConfig&, const gemm::GemmShape&)>;

  /// Timer calls per candidate per sweep before the candidate counts as
  /// failed for that sweep; only a failed call is retried.
  static constexpr int kTrialAttempts = 2;

  /// `candidates` are canonical configuration indices; `timer` is invoked
  /// once per eligible candidate on every cache miss, and up to
  /// kTrialAttempts times for a candidate whose trials fail.
  /// The first candidate doubles as the guaranteed fallback: it is never
  /// quarantined and is served when a whole sweep fails.
  OnlineTuner(std::vector<std::size_t> candidates, TimerFn timer,
              TunerOptions options = {});

  /// Best candidate for the shape; benchmarks on first sight of the shape.
  /// Never throws on trial failures — degrades to the fallback config. A
  /// shape breaking gemm::check_shape is the caller's error: it throws
  /// common::Error before any cache lookup, counter or trial.
  [[nodiscard]] gemm::KernelConfig select(const gemm::GemmShape& shape);

  /// Warm-start: adopts a previously tuned decision so select() serves it
  /// without a trial sweep. Returns false — and stores nothing — when
  /// `canonical_index` is not one of this tuner's candidates (a stored
  /// decision for a config we no longer ship must re-tune, not resurrect
  /// it) or the shape is already cached (first decision wins, matching the
  /// select() race rule). Thread-safe.
  bool preseed(const gemm::GemmShape& shape, std::size_t canonical_index);

  /// Every cached (shape -> canonical index) decision, ordered by shape —
  /// what a persistent store flushes back after serving. Thread-safe.
  [[nodiscard]] std::vector<std::pair<gemm::GemmShape, std::size_t>>
  snapshot() const;

  /// The configuration served when every candidate of a sweep fails (the
  /// first candidate — always a valid, runnable member of the zoo).
  [[nodiscard]] gemm::KernelConfig fallback_config() const;

  /// Statistics for the warm-up-cost analysis.
  [[nodiscard]] std::size_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Total seconds of trial runs spent warming the cache (as reported by
  /// the timer function).
  [[nodiscard]] double trial_seconds() const { return trial_seconds_.value(); }
  [[nodiscard]] std::size_t cached_shapes() const;

  // -- Degradation telemetry.

  /// Canonical indices currently quarantined, ascending.
  [[nodiscard]] std::vector<std::size_t> quarantined() const;
  [[nodiscard]] bool is_quarantined(std::size_t canonical_index) const;
  /// Trials that failed (threw or returned an unusable time).
  [[nodiscard]] std::size_t trial_failures() const {
    return trial_failures_.load(std::memory_order_relaxed);
  }
  /// Sweeps in which every candidate failed and the fallback was served.
  [[nodiscard]] std::size_t degraded_selects() const {
    return degraded_selects_.load(std::memory_order_relaxed);
  }

 private:
  struct CandidateHealth {
    std::size_t consecutive_failures = 0;
    bool quarantined = false;
  };

  std::vector<std::size_t> candidates_;
  TimerFn timer_;
  TunerOptions options_;
  // Reader/writer split: select() fast path and the telemetry accessors
  // read shared; sweep adoption, preseed and quarantine write exclusive.
  // Trial sweeps run with the lock dropped, so the timer callback may block
  // or take its own locks without ordering against tuner.state.
  mutable aks::SharedMutex mutex_{"tuner.state"};
  std::map<gemm::GemmShape, std::size_t> cache_ AKS_GUARDED_BY(mutex_);
  /// Health per candidate (by position in candidates_).
  std::vector<CandidateHealth> health_ AKS_GUARDED_BY(mutex_);
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> trial_failures_{0};
  std::atomic<std::size_t> degraded_selects_{0};
  common::Accumulator trial_seconds_;
};

}  // namespace aks::select
