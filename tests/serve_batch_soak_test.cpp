// Concurrency soak for the batched selection API: 8 threads overlap
// select(), select_batch() and select() posted to the global thread pool
// on one service while an observer thread snapshots stats. Invariants
// under TSan: warm-up runs exactly once per unique shape (single-flight
// holds across entry points), every request is accounted as a hit, miss or
// coalesced wait, counters only ever grow, and nested pool use (pooled
// selects running on the same global pool the warm-up's parallel_for
// borrows) never deadlocks.
//
// Suite name SelectionServiceBatch is matched by the CI sanitize/tsan
// filters (SelectionService[A-Za-z]*).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/config.hpp"
#include "serve/selection_service.hpp"

namespace aks::serve {
namespace {

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {48 + 32 * i, 96 + 16 * ((i * 5) % 13), 48 + 64 * ((i * 3) % 7)});
  }
  return shapes;
}

/// Warm-up that counts invocations per shape and runs part of its work as a
/// parallel_for on the global pool — the same pool the posted select()
/// tasks occupy — so the soak exercises the nested-use guarantee for real.
class CountingWarmUp {
 public:
  gemm::KernelConfig operator()(const gemm::GemmShape& shape) {
    {
      std::lock_guard lock(mutex_);
      ++calls_[shape];
    }
    std::atomic<std::uint64_t> sum{0};
    common::ThreadPool::global().parallel_for(8, [&](std::size_t i) {
      sum.fetch_add(shape.m * (i + 1), std::memory_order_relaxed);
    });
    // sum is deterministic in the shape, so folding it in keeps the answer
    // a pure function of the shape while making the nested work observable.
    const auto& configs = gemm::enumerate_configs();
    return configs[(shape.m * 31 + shape.k * 7 + shape.n + sum.load()) %
                   configs.size()];
  }

  std::map<gemm::GemmShape, std::size_t> calls() {
    std::lock_guard lock(mutex_);
    return calls_;
  }

 private:
  std::mutex mutex_;
  std::map<gemm::GemmShape, std::size_t> calls_;
};

TEST(SelectionServiceBatch, ConcurrentMixedEntryPointsSoak) {
  auto warm_up = std::make_shared<CountingWarmUp>();
  SelectionService service(
      [warm_up](const gemm::GemmShape& shape) { return (*warm_up)(shape); });

  const auto shapes = test_shapes(24);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 60;
  std::atomic<std::uint64_t> requested{0};
  std::atomic<bool> stop_observer{false};

  // Observer: every stats() snapshot must be >= the previous one field by
  // field (counters are monotonic even while batches are in flight).
  std::thread observer([&] {
    ServiceStats last{};
    while (!stop_observer.load(std::memory_order_acquire)) {
      const auto now = service.stats();
      EXPECT_GE(now.hits, last.hits);
      EXPECT_GE(now.misses, last.misses);
      EXPECT_GE(now.coalesced_waits, last.coalesced_waits);
      EXPECT_GE(now.batch_requests, last.batch_requests);
      EXPECT_GE(now.batch_shapes, last.batch_shapes);
      EXPECT_GE(now.batch_dedup, last.batch_dedup);
      EXPECT_GE(now.batch_wave_shapes, last.batch_wave_shapes);
      EXPECT_EQ(now.duplicate_sweeps, 0u);
      last = now;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(0x50a1 + t);
      for (std::size_t it = 0; it < kIterations; ++it) {
        const double op = rng.uniform();
        if (op < 0.4) {
          const auto& shape = shapes[rng.uniform_index(shapes.size())];
          (void)service.select(shape);
          requested.fetch_add(1, std::memory_order_relaxed);
        } else if (op < 0.8) {
          std::vector<gemm::GemmShape> batch;
          const std::size_t size = 1 + rng.uniform_index(16);
          for (std::size_t i = 0; i < size; ++i) {
            batch.push_back(shapes[rng.uniform_index(shapes.size())]);
          }
          const auto out = service.select_batch(batch);
          EXPECT_EQ(out.size(), batch.size());
          requested.fetch_add(size, std::memory_order_relaxed);
        } else {
          const auto& shape = shapes[rng.uniform_index(shapes.size())];
          std::packaged_task<gemm::KernelConfig()> task(
              [&] { return service.select(shape); });
          auto future = task.get_future();
          common::ThreadPool::global().post([&task] { task(); });
          (void)future.get();
          requested.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop_observer.store(true, std::memory_order_release);
  observer.join();

  // Exactly-once warm-up per unique shape, across all three entry points.
  const auto calls = warm_up->calls();
  for (const auto& [shape, count] : calls) {
    EXPECT_EQ(count, 1u) << "shape swept " << count << " times";
  }
  EXPECT_LE(calls.size(), shapes.size());

  const auto stats = service.stats();
  EXPECT_EQ(stats.duplicate_sweeps, 0u);
  EXPECT_EQ(stats.misses, calls.size());
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced_waits,
            requested.load())
      << "every request must be accounted as hit, miss or coalesced wait";
  EXPECT_EQ(stats.cached_shapes, calls.size());
}

}  // namespace
}  // namespace aks::serve
