// Online (dynamic) kernel tuning — the strategy the paper's introduction
// attributes to ML frameworks: "doing trial runs the first time an input
// size is used and choosing the best for subsequent runs".
//
// The tuner holds a candidate configuration set (typically a pruned set).
// Every select() runs one sweep: it times every eligible candidate through
// the supplied timing function and returns the fastest. Remembering the
// winner per shape is the serving layer's job — serve::SelectionService
// caches the decision and runs the sweep once per shape (single-flight), so
// the tuner holds no shape-keyed state of its own. This is the baseline a
// learned selector competes with: zero selection error asymptotically, but
// a warm-up cost of |candidates| trial runs per novel shape — exactly the
// trade-off bench/ablation_online_vs_learned measures.
//
// Degradation contract (see DESIGN.md "Fault model"): a trial that throws
// (launch failure, hang killed at the deadline) or returns a non-finite /
// non-positive time is *not* an error of select(). Only such a trial is
// retried, up to OnlineTuner::kTrialAttempts; the first valid time settles
// the candidate, so a healthy candidate costs exactly one timer call per
// sweep whether or not a fault plan is installed. A candidate whose sweeps
// keep failing is quarantined after kQuarantineThreshold consecutive
// sweep-level failures and skipped from then on (so a kernel that cannot
// launch stops burning warm-up budget and can never win); and when every
// candidate of a sweep fails, select() returns the guaranteed fallback
// configuration — the first candidate, which is immune to quarantine —
// instead of throwing. select() never throws on a degraded zoo. Faults are
// drawn at Site::kWarmUpTrial / Site::kKernelLaunch (the trial arms both),
// keyed on (shape, candidate, attempt) so fault sequences replay
// bit-identically.
//
// Thread safety: select() may be called concurrently. A sweep copies the
// quarantine health under tuner.state, runs its trials unlocked (so the
// timer callback may block or take its own locks) and folds its failures
// back in under the lock; the statistics are atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"

namespace aks::select {

class OnlineTuner {
 public:
  /// Times one run of `config` on `shape`, returning seconds. May throw and
  /// may return garbage under fault injection; the tuner owns recovery.
  using TimerFn =
      std::function<double(const gemm::KernelConfig&, const gemm::GemmShape&)>;

  /// Timer calls per candidate per sweep before the candidate counts as
  /// failed for that sweep; only a failed call is retried.
  static constexpr int kTrialAttempts = 2;
  /// Consecutive failed sweeps (no valid trial for the candidate in a
  /// select() sweep) before a candidate is quarantined.
  static constexpr std::size_t kQuarantineThreshold = 3;

  /// `candidates` are canonical configuration indices; `timer` is invoked
  /// once per eligible candidate on every select(), and up to
  /// kTrialAttempts times for a candidate whose trials fail.
  /// The first candidate doubles as the guaranteed fallback: it is never
  /// quarantined and is served when a whole sweep fails.
  OnlineTuner(std::vector<std::size_t> candidates, TimerFn timer);

  /// Best candidate for the shape, measured by one trial sweep. Never
  /// throws on trial failures — degrades to the fallback config. A shape
  /// breaking gemm::check_shape is the caller's error: it throws
  /// common::Error before any counter or trial.
  [[nodiscard]] gemm::KernelConfig select(const gemm::GemmShape& shape);

  /// Canonical configuration indices this tuner sweeps, in construction
  /// order (the first is the fallback).
  [[nodiscard]] const std::vector<std::size_t>& candidates() const {
    return candidates_;
  }

  /// The configuration served when every candidate of a sweep fails (the
  /// first candidate — always a valid, runnable member of the zoo).
  [[nodiscard]] gemm::KernelConfig fallback_config() const;

  /// Sweeps run (one per select() of a valid shape) — the warm-up count of
  /// the warm-up-cost analysis.
  [[nodiscard]] std::size_t cache_misses() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  /// Total seconds of trial runs (as reported by the timer function).
  [[nodiscard]] double trial_seconds() const { return trial_seconds_.value(); }

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
  // Guards only the quarantine health. Trial sweeps run with the lock
  // dropped, so the timer callback may block or take its own locks without
  // ordering against tuner.state.
  mutable aks::Mutex mutex_{"tuner.state"};
  /// Health per candidate (by position in candidates_).
  std::vector<CandidateHealth> health_ AKS_GUARDED_BY(mutex_);
  std::atomic<std::size_t> sweeps_{0};
  std::atomic<std::size_t> trial_failures_{0};
  std::atomic<std::size_t> degraded_selects_{0};
  common::Accumulator trial_seconds_;
};

}  // namespace aks::select
