// OnlineTuner contract: every select() is one trial sweep (the tuner holds
// no per-shape cache — serve::SelectionService is the one cache), the
// sweep accounting is exact, concurrent sweeps agree on a shape's winner,
// and concurrent sweeps that fail update the shared quarantine health
// coherently. The concurrency tests run under ThreadSanitizer in CI (the
// tsan job).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/online.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "perfmodel/cost_model.hpp"

namespace aks::select {
namespace {

OnlineTuner::TimerFn model_timer() {
  return [timing = perf::TimingModel(perf::DeviceSpec::amd_r9_nano(), 0.0)](
             const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
    return timing.best_of(config, shape, 3);
  };
}

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {64 + 32 * i, 128 + 16 * ((i * 7) % 11), 64 + 48 * ((i * 3) % 5)});
  }
  return shapes;
}

TEST(OnlineTunerConcurrency, SingleThreadedStatsContractUnchanged) {
  // Pin fault-free behaviour: this test asserts the exact timer-call
  // accounting, which an AKS_FAULT_PLAN environment plan would perturb.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  std::atomic<int> timer_calls{0};
  OnlineTuner tuner(candidates,
                    [&, timer = model_timer()](const gemm::KernelConfig& c,
                                               const gemm::GemmShape& s) {
                      timer_calls.fetch_add(1);
                      return timer(c, s);
                    });
  const gemm::GemmShape shape{256, 256, 256};
  const auto first = tuner.select(shape);
  const auto second = tuner.select(shape);
  // Each select() is one sweep: one timer call per candidate, every time.
  EXPECT_EQ(gemm::config_index(first), gemm::config_index(second));
  EXPECT_EQ(tuner.cache_misses(), 2u);
  EXPECT_EQ(timer_calls.load(), static_cast<int>(2 * candidates.size()));
  EXPECT_GT(tuner.trial_seconds(), 0.0);
}

TEST(OnlineTuner, OutlierTrialSettlesCandidateInOneTimerCall) {
  // A timing outlier is a valid (if wrong) time: the first valid time
  // settles the candidate, so every candidate costs one timer call per
  // sweep with or without a fault plan.
  const auto plan = faults::FaultPlan::parse("seed=3,outlier=1");
  faults::ScopedFaultPlan install(plan);
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  std::atomic<int> timer_calls{0};
  OnlineTuner tuner(candidates,
                    [&, timer = model_timer()](const gemm::KernelConfig& c,
                                               const gemm::GemmShape& s) {
                      timer_calls.fetch_add(1);
                      return timer(c, s);
                    });
  const auto shapes = test_shapes(4);
  for (const auto& shape : shapes) (void)tuner.select(shape);
  EXPECT_EQ(timer_calls.load(),
            static_cast<int>(shapes.size() * candidates.size()));
  EXPECT_EQ(tuner.trial_failures(), 0u);
  EXPECT_EQ(tuner.degraded_selects(), 0u);
}

TEST(OnlineTuner, FailingTrialRetriedUpToTrialAttempts) {
  // Every launch fails: each candidate is tried kTrialAttempts times, then
  // the sweep degrades to the fallback without throwing.
  const auto plan = faults::FaultPlan::parse("seed=3,launch=1");
  faults::ScopedFaultPlan install(plan);
  const std::vector<std::size_t> candidates = {5, 200, 450};
  std::atomic<int> timer_calls{0};
  OnlineTuner tuner(candidates,
                    [&, timer = model_timer()](const gemm::KernelConfig& c,
                                               const gemm::GemmShape& s) {
                      // As a host-mode launch through syclrt::Queue would.
                      timer_calls.fetch_add(1);
                      faults::maybe_inject_launch_fault();
                      return timer(c, s);
                    });
  const auto config = tuner.select({256, 256, 256});
  EXPECT_EQ(gemm::config_index(config), candidates.front());
  const auto expected_calls =
      static_cast<int>(candidates.size()) * OnlineTuner::kTrialAttempts;
  EXPECT_EQ(timer_calls.load(), expected_calls);
  EXPECT_EQ(tuner.trial_failures(), static_cast<std::size_t>(expected_calls));
  EXPECT_EQ(tuner.degraded_selects(), 1u);
}

TEST(OnlineTuner, RejectsInvalidShapesBeforeAnySweep) {
  // A caller's bad shape is refused at select(). Reaching the trials, it
  // would fail every one as if the kernels were at fault and quarantine the
  // healthy candidates for good.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const std::vector<std::size_t> candidates = {0, 100, 250, 400};
  std::atomic<int> timer_calls{0};
  const auto counting_timer = [&, timer = model_timer()](
                                  const gemm::KernelConfig& c,
                                  const gemm::GemmShape& s) {
    timer_calls.fetch_add(1);
    return timer(c, s);
  };
  OnlineTuner tuner(candidates, counting_timer);

  const std::size_t huge = std::size_t{1} << 40;
  const std::vector<gemm::GemmShape> bad = {
      {0, 64, 1}, {0, 64, 2},       {0, 64, 3},       {64, 0, 64},
      {64, 64, 0}, {huge, huge, 1}, {1, huge, huge}, {huge, 1, huge}};
  for (const auto& shape : bad) {
    EXPECT_THROW((void)tuner.select(shape), common::Error)
        << shape.to_string();
  }
  EXPECT_TRUE(tuner.quarantined().empty());
  EXPECT_EQ(tuner.cache_misses(), 0u);
  EXPECT_EQ(tuner.trial_failures(), 0u);
  EXPECT_EQ(tuner.degraded_selects(), 0u);
  EXPECT_EQ(timer_calls.load(), 0);

  // The next valid shape gets its true best, as from a fresh tuner.
  const gemm::GemmShape shape{256, 256, 256};
  OnlineTuner fresh(candidates, model_timer());
  const std::size_t expected = gemm::config_index(fresh.select(shape));
  ASSERT_NE(expected, candidates.front());
  EXPECT_EQ(gemm::config_index(tuner.select(shape)), expected);
  EXPECT_EQ(timer_calls.load(), static_cast<int>(candidates.size()));
}

TEST(OnlineTunerConcurrency, ConcurrentSelectsAgreeOnEveryShape) {
  // Fault-free: under a plan, quarantine evolving between two sweeps of the
  // same shape may legitimately change its winner.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  OnlineTuner tuner(candidates, model_timer());
  const auto shapes = test_shapes(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 5;

  // winners[t][s]: config index thread t observed for shape s (last repeat;
  // all repeats must agree because every sweep measures the same times).
  std::vector<std::vector<std::size_t>> winners(
      kThreads, std::vector<std::size_t>(shapes.size()));
  std::atomic<bool> stable{true};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          const auto index = gemm::config_index(tuner.select(shapes[s]));
          if (rep > 0 && winners[t][s] != index) stable.store(false);
          winners[t][s] = index;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(stable.load());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(winners[t][s], winners[0][s])
          << "threads disagree on shape " << shapes[s].to_string();
    }
  }

  // Every select() is counted exactly once, as a sweep.
  EXPECT_EQ(tuner.cache_misses(), kThreads * kRepeats * shapes.size());
  EXPECT_GT(tuner.trial_seconds(), 0.0);
}

TEST(OnlineTunerConcurrency, ConcurrentSweepsUpdateQuarantineHealth) {
  // Every warm-up trial fails: concurrent sweeps race to fold their
  // failures into the shared health vector. Each sweep degrades to the
  // fallback, every non-fallback candidate ends quarantined, and no sweep
  // or failure goes uncounted.
  faults::FaultPlan plan;
  plan.seed = 11;
  plan.at(faults::Site::kWarmUpTrial).launch_failure = 1.0;
  faults::ScopedFaultPlan install(plan);
  const std::vector<std::size_t> candidates = {5, 200, 450, 600};
  OnlineTuner tuner(candidates, model_timer());
  const auto shapes = test_shapes(12);
  constexpr std::size_t kThreads = 8;

  std::atomic<bool> always_fallback{true};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const auto& shape = shapes[(s + t) % shapes.size()];
        if (gemm::config_index(tuner.select(shape)) != candidates.front()) {
          always_fallback.store(false);
        }
        // Concurrent readers of the health vector.
        (void)tuner.is_quarantined(candidates.back());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::size_t sweeps = kThreads * shapes.size();
  EXPECT_TRUE(always_fallback.load());
  EXPECT_EQ(tuner.cache_misses(), sweeps);
  EXPECT_EQ(tuner.degraded_selects(), sweeps);
  EXPECT_EQ(tuner.quarantined(), (std::vector<std::size_t>{200, 450, 600}));
  EXPECT_FALSE(tuner.is_quarantined(candidates.front()));
  // The fallback is tried in every sweep; a quarantined candidate only in
  // sweeps that snapshotted it as still eligible.
  const std::size_t attempts = OnlineTuner::kTrialAttempts;
  EXPECT_GE(tuner.trial_failures(), sweeps * attempts);
  EXPECT_LE(tuner.trial_failures(), sweeps * candidates.size() * attempts);
}

}  // namespace
}  // namespace aks::select
