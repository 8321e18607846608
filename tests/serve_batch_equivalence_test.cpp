// Batched selection equivalence: select_batch() must be observationally
// identical to calling select() once per element, in input order, on a
// fresh twin service — bit-identical configs, matching hit/miss/fallback
// accounting, and zero duplicate sweeps — across randomized shape vectors
// mixing duplicates, permutations, cold/warm state and injected faults.
// The acceptance bar for the batch API is >= 1000 randomized vectors
// across this suite (the per-test counts below sum past it).
//
// Suite name SelectionServiceBatch is matched by the CI sanitize/tsan
// filters (SelectionService[A-Za-z]*).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "core/online.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"

namespace aks::serve {
namespace {

std::vector<gemm::GemmShape> shape_pool() {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < 24; ++i) {
    shapes.push_back(
        {32 + 16 * i, 64 + 8 * ((i * 5) % 13), 32 + 32 * ((i * 3) % 7)});
  }
  return shapes;
}

/// Deterministic cheap warm-up: the winner is a pure function of the shape,
/// so twin services must agree bit-for-bit however their calls interleave.
gemm::KernelConfig pure_config(const gemm::GemmShape& shape) {
  const auto& configs = gemm::enumerate_configs();
  return configs[(shape.m * 31 + shape.k * 7 + shape.n) % configs.size()];
}

/// A random vector over a window of the pool: narrow windows force heavy
/// duplication, wide ones mostly-unique batches. Sizes 0..32 include the
/// empty batch.
std::vector<gemm::GemmShape> random_vector(
    common::Rng& rng, const std::vector<gemm::GemmShape>& pool) {
  const std::size_t size = rng.uniform_index(33);
  const std::size_t window = 1 + rng.uniform_index(pool.size());
  std::vector<gemm::GemmShape> v;
  v.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(pool[rng.uniform_index(window)]);
  }
  return v;
}

/// pure_config() behind a warm-up that throws on injected faults, keyed per
/// (shape, attempt) through its own attempt ledger: a shape can fail its
/// first warm-up and succeed a retry. Twins built from two calls see the
/// same per-shape outcomes as long as they attempt shapes alike.
SelectionService::WarmUpFn ledger_warm_up() {
  struct AttemptLedger {
    std::mutex m;
    std::map<gemm::GemmShape, std::uint64_t> attempts;
  };
  return [ledger = std::make_shared<AttemptLedger>()](
             const gemm::GemmShape& shape) -> gemm::KernelConfig {
    std::uint64_t attempt = 0;
    {
      std::lock_guard lock(ledger->m);
      attempt = ledger->attempts[shape]++;
    }
    faults::FaultScope scope(
        faults::site_bit(faults::Site::kWarmUpTrial),
        faults::mix_key(shape.m, shape.k, shape.n, attempt));
    if (faults::probe(faults::Site::kWarmUpTrial)) {
      throw faults::LaunchFailure("injected warm-up failure");
    }
    return pure_config(shape);
  };
}

/// Runs `rounds` random vectors against a (batched, sequential) twin pair,
/// asserting per-element bit-identity and accounting parity. Counts the
/// vectors exercised into `vectors` (out-param: ASSERT_* needs void return).
void run_twin_rounds(SelectionService& batched, SelectionService& sequential,
                     common::Rng& rng,
                     const std::vector<gemm::GemmShape>& pool,
                     std::size_t rounds, std::size_t& vectors) {
  for (std::size_t round = 0; round < rounds; ++round) {
    // Cold/warm mix: sometimes pre-warm a random subset through the plain
    // path on both twins before the batch sees it.
    if (rng.uniform() < 0.4) {
      const std::size_t warm = rng.uniform_index(pool.size() + 1);
      for (std::size_t i = 0; i < warm; ++i) {
        const auto& shape = pool[rng.uniform_index(pool.size())];
        (void)batched.select(shape);
        (void)sequential.select(shape);
      }
    }
    const auto v = random_vector(rng, pool);
    const auto got = batched.select_batch(v);
    ASSERT_EQ(got.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto expected = sequential.select(v[i]);
      ASSERT_EQ(gemm::config_index(got[i]), gemm::config_index(expected))
          << "position " << i << " of a " << v.size() << "-shape batch "
          << "diverged from sequential select";
    }
    ++vectors;
  }
  const auto b = batched.stats();
  const auto s = sequential.stats();
  EXPECT_EQ(b.duplicate_sweeps, 0u);
  EXPECT_EQ(s.duplicate_sweeps, 0u);
  EXPECT_EQ(b.misses, s.misses) << "batch warmed a different shape set";
  EXPECT_EQ(b.hits, s.hits) << "batch hit accounting diverged";
  EXPECT_EQ(b.fallbacks_served, s.fallbacks_served);
  EXPECT_EQ(b.cached_shapes, s.cached_shapes);
}

TEST(SelectionServiceBatch, MatchesSequentialSelectOverRandomVectors) {
  const auto pool = shape_pool();
  common::Rng rng(0xba7c4);
  std::size_t vectors = 0;
  for (std::size_t trial = 0; trial < 140; ++trial) {
    SelectionService batched(pure_config);
    SelectionService sequential(pure_config);
    run_twin_rounds(batched, sequential, rng, pool, 5, vectors);
  }
  EXPECT_GE(vectors, 700u);
}

TEST(SelectionServiceBatch, PermutedBatchesPreserveInputOrderMapping) {
  // Against a single service: a permutation of a just-resolved batch must
  // map every position to the config its shape received the first time —
  // out[i] always belongs to shapes[i], whatever order the wave ran in.
  const auto pool = shape_pool();
  common::Rng rng(0x9e37);
  std::size_t vectors = 0;
  for (std::size_t trial = 0; trial < 100; ++trial) {
    SelectionService service(pure_config);
    auto v = random_vector(rng, pool);
    const auto first = service.select_batch(v);
    std::map<gemm::GemmShape, std::size_t> by_shape;
    for (std::size_t i = 0; i < v.size(); ++i) {
      by_shape[v[i]] = gemm::config_index(first[i]);
    }
    rng.shuffle(v);
    const auto second = service.select_batch(v);
    ASSERT_EQ(second.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(gemm::config_index(second[i]), by_shape.at(v[i]))
          << "permuted position " << i << " lost its shape's answer";
    }
    EXPECT_EQ(service.stats().duplicate_sweeps, 0u);
    vectors += 2;
  }
  EXPECT_GE(vectors, 200u);
}

TEST(SelectionServiceBatch, MatchesSequentialUnderTunerFaultPlan) {
  // Twin OnlineTuners under a canned fault plan: trial faults are keyed on
  // (shape, candidate, attempt), so twins degrade identically as long as
  // the batch warms shapes in the same order a sequential caller would.
  faults::FaultPlan plan;
  plan.seed = 77;
  plan.at(faults::Site::kWarmUpTrial).launch_failure = 0.3;
  faults::ScopedFaultPlan install(plan);

  const auto pool = shape_pool();
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  const auto timer =
      [timing = perf::TimingModel(perf::DeviceSpec::amd_r9_nano(), 0.0)](
          const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
        return timing.best_of(config, shape, 3);
      };
  common::Rng rng(0xfa17);
  std::size_t vectors = 0;
  for (std::size_t trial = 0; trial < 30; ++trial) {
    select::OnlineTuner tuner_b(candidates, timer);
    select::OnlineTuner tuner_s(candidates, timer);
    ServiceOptions options_b;
    options_b.fallback = tuner_b.fallback_config();
    ServiceOptions options_s;
    options_s.fallback = tuner_s.fallback_config();
    SelectionService batched(tuner_b, options_b);
    SelectionService sequential(tuner_s, options_s);
    run_twin_rounds(batched, sequential, rng, pool, 5, vectors);
  }
  EXPECT_GE(vectors, 150u);
}

TEST(SelectionServiceBatch, MatchesSequentialUnderThrowingWarmUps) {
  // A warm-up that *throws* on injected faults (ledger_warm_up): a shape
  // can fail its first warm-up and succeed a retry, exercising the
  // degraded-duplicate path (later occurrences of a failed shape must
  // re-select, exactly like a sequential caller whose failed entry was
  // dropped).
  faults::FaultPlan plan;
  plan.seed = 191;
  plan.at(faults::Site::kWarmUpTrial).launch_failure = 0.4;
  faults::ScopedFaultPlan install(plan);

  const auto pool = shape_pool();
  const auto fallback = gemm::enumerate_configs()[42];
  common::Rng rng(0x5eed);
  std::size_t vectors = 0;
  for (std::size_t trial = 0; trial < 30; ++trial) {
    ServiceOptions options;
    options.fallback = fallback;
    SelectionService batched(ledger_warm_up(), options);
    SelectionService sequential(ledger_warm_up(), options);
    run_twin_rounds(batched, sequential, rng, pool, 5, vectors);
  }
  EXPECT_GE(vectors, 150u);
}

TEST(SelectionServiceBatch, MatchesSequentialOverWarmStartedStore) {
  // Twin services warm-started from copies of one journal: shapes stored
  // for this device are preloaded, shapes stored only for another device
  // are served as transfer priors, the rest are cold and written behind.
  // Batched and sequential traffic (then a provisional refresh) must agree
  // on every answer, every service counter and every flushed record.
  faults::FaultPlan plan;
  plan.seed = 404;
  plan.at(faults::Site::kWarmUpTrial).launch_failure = 0.2;
  faults::ScopedFaultPlan install(plan);

  const auto nano = perf::DeviceSpec::amd_r9_nano();
  const auto igpu = perf::DeviceSpec::integrated_gpu();
  const auto dir = std::filesystem::temp_directory_path();
  const auto seed_path = dir / "aks_batch_equiv_seed.journal";
  const auto batched_path = dir / "aks_batch_equiv_batched.journal";
  const auto sequential_path = dir / "aks_batch_equiv_sequential.journal";
  const auto pool = shape_pool();
  const auto& configs = gemm::enumerate_configs();
  // Stored answers differ from pure_config(), so preloaded, transferred and
  // freshly swept answers are told apart.
  const auto stored = [&](const gemm::GemmShape& shape,
                          std::uint64_t fingerprint, std::uint32_t offset) {
    store::SelectionRecord record;
    record.device_fingerprint = fingerprint;
    record.shape = shape;
    record.config_index = static_cast<std::uint32_t>(
        (gemm::config_index(pure_config(shape)) + offset) % configs.size());
    record.sweeps = 1;
    return record;
  };

  common::Rng rng(0x570e);
  std::size_t vectors = 0;
  ServiceStats totals;  // the paths exercised, summed over trials
  for (std::size_t trial = 0; trial < 20; ++trial) {
    for (const auto& path : {seed_path, batched_path, sequential_path}) {
      std::filesystem::remove(path);
    }
    {
      store::SelectionStore seed(seed_path);
      seed.put_device(igpu);
      for (const auto& shape : pool) {
        const double draw = rng.uniform();
        if (draw < 0.3) {
          ASSERT_TRUE(seed.put(stored(shape, nano.fingerprint(), 1)));
        } else if (draw < 0.6) {
          ASSERT_TRUE(seed.put(stored(shape, igpu.fingerprint(), 2)));
        }
      }
      (void)seed.flush();
    }
    std::filesystem::copy_file(seed_path, batched_path);
    std::filesystem::copy_file(seed_path, sequential_path);

    ServiceOptions options;
    options.fallback = configs[42];
    {
      store::SelectionStore batched_store(batched_path);
      store::SelectionStore sequential_store(sequential_path);
      SelectionService batched(ledger_warm_up(), options);
      SelectionService sequential(ledger_warm_up(), options);
      EXPECT_EQ(batched.warm_start(batched_store, nano),
                sequential.warm_start(sequential_store, nano));
      run_twin_rounds(batched, sequential, rng, pool, 5, vectors);
      EXPECT_EQ(batched.refresh_provisional(),
                sequential.refresh_provisional());
      EXPECT_EQ(batched.provisional_shapes(), sequential.provisional_shapes());

      const auto b = batched.stats();
      const auto s = sequential.stats();
      EXPECT_EQ(b.preloaded, s.preloaded);
      EXPECT_EQ(b.transfer_priors, s.transfer_priors);
      EXPECT_EQ(b.provisional_refreshes, s.provisional_refreshes);
      EXPECT_EQ(b.warmup_failures, s.warmup_failures);
      EXPECT_EQ(b.coalesced_waits, s.coalesced_waits);
      totals.preloaded += b.preloaded;
      totals.transfer_priors += b.transfer_priors;
      totals.provisional_refreshes += b.provisional_refreshes;
      totals.warmup_failures += b.warmup_failures;
      totals.misses += b.misses;
      (void)batched_store.flush();
      (void)sequential_store.flush();
    }

    // The journals, reloaded, hold the same decision per (device, shape);
    // only the measured warm-up seconds may differ.
    const store::SelectionStore batched_store(batched_path);
    const store::SelectionStore sequential_store(sequential_path);
    auto b = batched_store.selections();
    auto s = sequential_store.selections();
    ASSERT_EQ(b.size(), s.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i].warmup_seconds = s[i].warmup_seconds = 0.0;
      EXPECT_EQ(b[i], s[i]) << "record for " << b[i].shape.to_string()
                            << " diverged between batched and sequential";
    }
  }
  for (const auto& path : {seed_path, batched_path, sequential_path}) {
    std::filesystem::remove(path);
  }
  EXPECT_GE(vectors, 100u);
  EXPECT_GT(totals.preloaded, 0u);
  EXPECT_GT(totals.transfer_priors, 0u);
  EXPECT_GT(totals.provisional_refreshes, 0u);
  EXPECT_GT(totals.warmup_failures, 0u);
  EXPECT_GT(totals.misses, 0u);
}

TEST(SelectionServiceBatch, BatchStatsAccounting) {
  const auto pool = shape_pool();
  SelectionService service(pure_config);
  // 8 uniques, each three times: 16 deduplicated, 8 wave-warmed.
  std::vector<gemm::GemmShape> batch;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < 8; ++i) batch.push_back(pool[i]);
  }
  const auto out = service.select_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  auto stats = service.stats();
  EXPECT_EQ(stats.batch_requests, 1u);
  EXPECT_EQ(stats.batch_shapes, 24u);
  EXPECT_EQ(stats.batch_dedup, 16u);
  EXPECT_EQ(stats.batch_wave_shapes, 8u);
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.hits, 16u);

  // A second, fully warm batch adds no wave and all-hit accounting; the
  // empty batch counts a request and nothing else.
  (void)service.select_batch(batch);
  (void)service.select_batch(std::vector<gemm::GemmShape>{});
  stats = service.stats();
  EXPECT_EQ(stats.batch_requests, 3u);
  EXPECT_EQ(stats.batch_shapes, 48u);
  EXPECT_EQ(stats.batch_wave_shapes, 8u);
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.hits, 40u);
  EXPECT_EQ(stats.duplicate_sweeps, 0u);
}

}  // namespace
}  // namespace aks::serve
