// The environment plan reaches the very first probes of a process. The
// injector loads AKS_FAULT_PLAN lazily, under a lock, on the first probe,
// while other threads may already be probing without the lock. Under an
// every-launch-fails plan, a probe that comes back fault-free ran before
// the plan it raced with was armed: the fault sequence would then depend on
// the thread schedule and not only on (plan, seed, keys). The race exists
// once per process, so this binary holds one test and CTest starts it in a
// fresh process.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "faults/injector.hpp"

namespace aks::faults {
namespace {

TEST(FaultsEnvPlan, ConcurrentFirstProbesAllSeeTheEnvPlan) {
  // Every kernel launch fails. The key is repeated so that parsing the
  // spec, the window between the first probe taking the lock and the plan
  // being armed, lasts several scheduler slices: the other threads then
  // probe inside it whether or not they run in parallel with the first.
  std::string spec = "launch=1";
  for (int i = 0; i < 100000; ++i) spec += ",launch=1";
  // Set before any probe of the process, so the first probe reads it.
  ASSERT_EQ(setenv("AKS_FAULT_PLAN", spec.c_str(), 1), 0);  // NOLINT(concurrency-mt-unsafe)

  // Each thread probes until it sees a fault and counts the probes that
  // came back fault-free.
  constexpr std::size_t kThreads = 8;
  std::array<int, kThreads> fault_free{};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const FaultScope scope(site_bit(Site::kKernelLaunch), t);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!probe(Site::kKernelLaunch)) ++fault_free[t];
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fault_free[t], 0)
        << "thread " << t << " probed fault-free before the plan was armed";
  }
}

}  // namespace
}  // namespace aks::faults
