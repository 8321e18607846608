#include "serve/selection_service.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/online.hpp"
#include "core/selector.hpp"
#include "store/selection_store.hpp"
#include "trace/trace.hpp"

namespace aks::serve {

namespace {

// Cache shards: a power of two, so a shape's shard is its hash masked.
constexpr std::size_t kNumShards = 16;
constexpr std::size_t kShardMask = kNumShards - 1;

// select() latency is *sampled* (1 request in 32 per thread): recording
// every call would put three shared atomic RMWs on the cache-hit path and
// the resulting cache-line bouncing flattens throughput scaling. The first
// request of every thread is always sampled.
constexpr std::uint32_t kLatencySampleStride = 32;
thread_local std::uint32_t tl_latency_tick = 0;

}  // namespace

SelectionService::SelectionService(WarmUpFn warm_up, ServiceOptions options)
    : warm_up_(std::move(warm_up)),
      fallback_(options.fallback),
      hits_(metrics_.counter("serve.hits")),
      misses_(metrics_.counter("serve.misses")),
      coalesced_waits_(metrics_.counter("serve.coalesced_waits")),
      duplicate_sweeps_(metrics_.counter("serve.duplicate_sweeps")),
      warmup_failures_(metrics_.counter("serve.warmup_failures")),
      fallbacks_served_(metrics_.counter("serve.fallbacks_served")),
      preloaded_(metrics_.counter("serve.preloaded")),
      transfer_priors_(metrics_.counter("serve.transfer_priors")),
      provisional_refreshes_(metrics_.counter("serve.provisional_refreshes")),
      batch_requests_(metrics_.counter("serve.batch_requests")),
      batch_shapes_(metrics_.counter("serve.batch_shapes")),
      batch_dedup_(metrics_.counter("serve.batch_dedup")),
      batch_wave_shapes_(metrics_.counter("serve.batch_wave_shapes")),
      warmup_seconds_(metrics_.accumulator("serve.warmup_seconds")),
      select_latency_(metrics_.histogram("serve.select_latency")),
      warmup_latency_(metrics_.histogram("serve.warmup_latency")),
      batch_size_(metrics_.histogram("serve.batch_size")),
      batch_amortized_latency_(
          metrics_.histogram("serve.batch_amortized_latency")) {
  AKS_CHECK(warm_up_ != nullptr, "selection service needs a warm-up function");
  shards_.reserve(kNumShards);
  for (std::size_t s = 0; s < kNumShards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SelectionService::SelectionService(const select::KernelSelector& selector,
                                   ServiceOptions options)
    : SelectionService(
          [&selector](const gemm::GemmShape& shape) {
            return selector.select_config(shape);
          },
          options) {
  record_source_ = store::Source::kLearnedSelector;
  shipped_ = selector.allowed();
}

SelectionService::SelectionService(select::OnlineTuner& tuner,
                                   ServiceOptions options)
    : SelectionService(
          [&tuner](const gemm::GemmShape& shape) {
            return tuner.select(shape);
          },
          options) {
  tuner_ = &tuner;
  shipped_ = tuner.candidates();
}

SelectionService::Shard& SelectionService::shard_for(
    const gemm::GemmShape& shape) {
  const std::size_t h = std::hash<gemm::GemmShape>{}(shape);
  return *shards_[h & kShardMask];
}

gemm::KernelConfig SelectionService::select(const gemm::GemmShape& shape) {
  gemm::check_shape(shape);
  std::optional<common::ScopedLatency> latency;
  if ((tl_latency_tick++ & (kLatencySampleStride - 1)) == 0) {
    latency.emplace(select_latency_);
  }
  const std::size_t shard_index =
      std::hash<gemm::GemmShape>{}(shape) & kShardMask;
  Shard& shard = *shards_[shard_index];

  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.select",
             {trace::arg("m", shape.m), trace::arg("k", shape.k),
              trace::arg("n", shape.n), trace::arg("shard", shard_index)});
  }

  std::shared_ptr<Entry> entry;
  bool leader = false;
  {
    aks::MutexLock lock(shard.m);
    const Claim claimed = claim(shard, shape);
    entry = claimed.slot;
    leader = claimed.leader;
  }
  const Answer got = leader ? lead(shape, shard, *entry, nullptr)
                            : adopt(shard, *entry);
  span.annotate(trace::arg("outcome", got.outcome));
  if (got.fallback) span.annotate(trace::arg("fallback", std::uint64_t{1}));
  if (got.error) std::rethrow_exception(got.error);
  return got.config;
}

std::vector<gemm::KernelConfig> SelectionService::select_batch(
    std::span<const gemm::GemmShape> shapes) {
  for (const gemm::GemmShape& shape : shapes) gemm::check_shape(shape);
  batch_requests_.add();
  const std::size_t n = shapes.size();
  batch_shapes_.add(n);
  batch_size_.record_value(n);
  if (n == 0) return {};

  common::Timer timer;
  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.select_batch", {trace::arg("batch", n)});
  }

  // -- Deduplicate: one open-addressed pass assigns every input a unique id
  // in first-occurrence input order (so unique id order *is* the order a
  // sequential caller would first see each shape — the order the miss wave
  // must run in, because the tuner's quarantine health evolves with it).
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t table_size = std::bit_ceil(2 * n);
  const std::size_t table_mask = table_size - 1;
  std::vector<std::uint32_t> table(table_size, kEmpty);
  std::vector<std::uint32_t> remap(n);
  std::vector<std::uint32_t> uniq_first;  // input index of first occurrence
  std::vector<std::size_t> uniq_hash;     // hashed once, reused for shards
  uniq_first.reserve(n);
  uniq_hash.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t h = std::hash<gemm::GemmShape>{}(shapes[i]);
    std::size_t slot = h & table_mask;
    while (true) {
      const std::uint32_t id = table[slot];
      if (id == kEmpty) {
        table[slot] = static_cast<std::uint32_t>(uniq_first.size());
        remap[i] = table[slot];
        uniq_first.push_back(static_cast<std::uint32_t>(i));
        uniq_hash.push_back(h);
        break;
      }
      if (uniq_hash[id] == h && shapes[uniq_first[id]] == shapes[i]) {
        remap[i] = id;
        break;
      }
      slot = (slot + 1) & table_mask;
    }
  }
  const std::size_t nu = uniq_first.size();
  span.annotate(trace::arg("dedup", n - nu));

  // -- Claim every unique, grouped by shard so each shard lock is taken once
  // per batch (a sequential caller locks per request). A published entry is
  // answered on the spot: it is immutable, so no refcount is taken and the
  // group's hits are counted with one add. Cold uniques join this batch's
  // miss wave; their leader entries are installed now, so concurrent
  // callers coalesce onto the batch. Another caller's in-flight entry is
  // adopted after the wave.
  std::vector<std::uint32_t> order(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    order[u] = static_cast<std::uint32_t>(u);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return (uniq_hash[a] & kShardMask) <
                            (uniq_hash[b] & kShardMask);
                   });
  std::vector<std::shared_ptr<Entry>> uentry(nu);
  std::vector<Answer> uanswer(nu);
  std::vector<std::uint32_t> wave;     // uniques this batch leads
  std::vector<std::uint32_t> foreign;  // another caller's in-flight warm-ups
  std::size_t shard_groups = 0;
  for (std::size_t g = 0; g < nu;) {
    const std::size_t shard_index = uniq_hash[order[g]] & kShardMask;
    Shard& shard = *shards_[shard_index];
    ++shard_groups;
    std::uint64_t local_hits = 0;
    aks::MutexLock lock(shard.m);
    for (; g < nu && (uniq_hash[order[g]] & kShardMask) == shard_index; ++g) {
      const std::uint32_t u = order[g];
      const Claim claimed = claim(shard, shapes[uniq_first[u]]);
      if (!claimed.leader &&
          claimed.slot->ready.load(std::memory_order_acquire)) {
        ++local_hits;
        uanswer[u] = answer(*claimed.slot, "hit");
        continue;
      }
      uentry[u] = claimed.slot;
      (claimed.leader ? wave : foreign).push_back(u);
    }
    shard.hits.fetch_add(local_hits, std::memory_order_relaxed);
  }
  span.annotate(trace::arg("shard_groups", shard_groups));
  span.annotate(trace::arg("miss_wave", wave.size()));

  // -- Lead the miss wave sequentially in first-occurrence input order
  // (unique ids are assigned in that order, so sorting by id restores it
  // across shard groups), with the store write-behind deferred into one
  // put_batch. A failure degrades only its own shape; the wave always
  // completes, so no entry is ever left unpublished for its waiters.
  std::sort(wave.begin(), wave.end());
  batch_wave_shapes_.add(wave.size());
  std::vector<store::SelectionRecord> wave_records;
  for (const std::uint32_t u : wave) {
    uanswer[u] = lead(shapes[uniq_first[u]],
                      *shards_[uniq_hash[u] & kShardMask], *uentry[u],
                      &wave_records);
  }
  if (!wave_records.empty()) {
    // One write-behind enqueue for the whole wave; its cost stays on the
    // cold-path ledger, same as the per-shape enqueue it replaces.
    common::Timer enqueue_timer;
    (void)store_->put_batch(std::move(wave_records));
    warmup_seconds_.add(enqueue_timer.elapsed_seconds());
  }
  for (const std::uint32_t u : foreign) {
    uanswer[u] = adopt(*shards_[uniq_hash[u] & kShardMask], *uentry[u]);
  }

  // -- Fan out to input order. Duplicates of a healthy unique are answered
  // in place (counted as cache hits, like the sequential re-select they
  // replace); duplicates of a degraded unique re-select for real, because
  // the degraded entry was dropped and a sequential caller would retry the
  // warm-up. The first error in input order is rethrown only now, when the
  // whole wave has published — no entry is left dangling for waiters.
  std::vector<gemm::KernelConfig> out(n);
  std::uint64_t deduped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = remap[i];
    const Answer& got = uanswer[u];
    if (i == uniq_first[u]) {
      if (got.error) std::rethrow_exception(got.error);
      out[i] = got.config;
    } else if (got.error || got.fallback) {
      out[i] = select(shapes[i]);  // sequential-equivalent retry; may throw
    } else {
      out[i] = got.config;
      shards_[uniq_hash[u] & kShardMask]->hits.fetch_add(
          1, std::memory_order_relaxed);
      ++deduped;
    }
  }
  batch_dedup_.add(deduped);
  batch_amortized_latency_.record_seconds(timer.elapsed_seconds() /
                                          static_cast<double>(n));
  return out;
}

std::size_t SelectionService::warm_start(store::SelectionStore& store,
                                         const perf::DeviceSpec& device) {
  store_ = &store;
  device_ = device;
  device_fingerprint_ = device.fingerprint();
  // Record our own profile so entries flushed from this run are
  // transferable to *other* devices later.
  store.put_device(device);

  std::size_t seeded = 0;
  for (const store::SelectionRecord& record : store.selections()) {
    if (record.device_fingerprint != device_fingerprint_) continue;
    // A stored config the wrapped tuner or selector no longer ships is
    // re-tuned on its first request, never brought back.
    if (!shipped_.empty() &&
        std::find(shipped_.begin(), shipped_.end(), record.config_index) ==
            shipped_.end()) {
      continue;
    }
    // A transferred record was never measured here: serve it, but leave it
    // provisional so refresh_provisional() still re-tunes it locally.
    const bool provisional = record.source == store::Source::kTransfer;
    auto entry = std::make_shared<Entry>();
    entry->publish(gemm::enumerate_configs()[record.config_index], nullptr,
                   false, provisional);
    Shard& shard = shard_for(record.shape);
    aks::MutexLock lock(shard.m);
    auto& slot = shard.map[record.shape];
    if (slot) continue;  // already cached (warm_start called twice)
    slot = std::move(entry);
    preloaded_.add();
    ++seeded;
  }
  return seeded;
}

std::vector<gemm::GemmShape> SelectionService::provisional_shapes() const {
  std::vector<gemm::GemmShape> shapes;
  for (const auto& shard : shards_) {
    aks::MutexLock lock(shard->m);
    for (const auto& [shape, entry] : shard->map) {
      if (entry->ready.load(std::memory_order_acquire) && entry->provisional) {
        shapes.push_back(shape);
      }
    }
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

std::size_t SelectionService::refresh_provisional() {
  std::size_t refreshed = 0;
  for (const gemm::GemmShape& shape : provisional_shapes()) {
    // Published entries are immutable, so the re-tune goes into a *new*
    // entry swapped in under the shard lock; in-flight readers of the old
    // entry still see the coherent prior. A failed sweep leaves the prior
    // in place, and a later refresh retries.
    auto fresh = std::make_shared<Entry>();
    if (!warm(shape, *fresh, nullptr)) continue;
    Shard& shard = shard_for(shape);
    {
      aks::MutexLock lock(shard.m);
      shard.map[shape] = std::move(fresh);
    }
    provisional_refreshes_.add();
    ++refreshed;
  }
  return refreshed;
}

void SelectionService::Entry::publish(const gemm::KernelConfig& answer,
                                      std::exception_ptr failure,
                                      bool degraded, bool prior) {
  {
    aks::MutexLock lock(m);
    config = answer;
    error = std::move(failure);
    fallback = degraded;
    provisional = prior;
    ready.store(true, std::memory_order_release);
  }
  cv.notify_all();
}

void SelectionService::Entry::wait() {
  aks::MutexLock lock(m);
  while (!ready.load(std::memory_order_acquire)) cv.wait(lock);
}

inline SelectionService::Claim SelectionService::claim(
    Shard& shard, const gemm::GemmShape& shape) {
  std::shared_ptr<Entry>& slot = shard.map[shape];
  const bool leader = slot == nullptr;
  if (leader) slot = std::make_shared<Entry>();
  return {slot, leader};
}

SelectionService::Answer SelectionService::lead(
    const gemm::GemmShape& shape, Shard& shard, Entry& entry,
    std::vector<store::SelectionRecord>* wave) {
  // Store-backed services consult the nearest-device prior before paying
  // for a sweep; a hit publishes the entry (provisionally) sweep-free.
  if (store_ != nullptr) {
    if (auto prior = store_->lookup_transfer(*device_, shape)) {
      entry.publish(gemm::enumerate_configs()[prior->record.config_index],
                    nullptr, false, true);
      transfer_priors_.add();
      // Persist the adoption under *our* fingerprint, tagged kTransfer so a
      // later warm_start still knows it is due a local re-tune.
      prior->record.device_fingerprint = device_fingerprint_;
      prior->record.source = store::Source::kTransfer;
      prior->record.sweeps = 0;
      write_behind(std::move(prior->record), wave);
      return answer(entry, "transfer_prior");
    }
  }
  misses_.add();
  if (entry.sweeps.fetch_add(1, std::memory_order_relaxed) > 0) {
    duplicate_sweeps_.add();
  }
  if (!warm(shape, entry, wave)) {
    // Drop the failed entry so a later request retries the warm-up;
    // current waiters still observe the published result (error or
    // fallback) through their Entry ref.
    aks::MutexLock lock(shard.m);
    const auto it = shard.map.find(shape);
    if (it != shard.map.end() && it->second.get() == &entry) {
      shard.map.erase(it);
    }
  }
  return answer(entry, "miss");
}

bool SelectionService::warm(const gemm::GemmShape& shape, Entry& entry,
                            std::vector<store::SelectionRecord>* wave) {
  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.warmup",
             {trace::arg("m", shape.m), trace::arg("k", shape.k),
              trace::arg("n", shape.n)});
  }
  gemm::KernelConfig config{};
  std::exception_ptr error;
  common::Timer timer;
  try {
    config = warm_up_(shape);
  } catch (...) {
    error = std::current_exception();
  }
  const double sweep_seconds = timer.elapsed_seconds();
  span.annotate(trace::arg("seconds", sweep_seconds));

  const bool tuned = !error;
  if (error) {
    warmup_failures_.add();
    span.annotate(trace::arg(
        "outcome", fallback_.has_value() ? "fallback" : "error"));
    if (fallback_.has_value()) {
      // Degradation contract: serve the fallback to the leader and every
      // waiter instead of propagating; select() never throws.
      config = *fallback_;
      error = nullptr;
    }
  }
  entry.publish(config, error, !tuned && !error, false);

  // Write-behind: a tuned answer becomes a store record (in memory only —
  // flushing is the owner's call, off the serving path). A fallback served
  // over a failed warm-up is not a tuned decision: never persisted, so a
  // warm start cannot resurrect it.
  if (tuned && store_ != nullptr) {
    if (auto record = make_record(shape, config, sweep_seconds)) {
      write_behind(*std::move(record), wave);
    }
  }

  // Sampled only now: the cold cost a miss actually adds over a hit is the
  // sweep *plus* the result publish plus the store write-behind enqueue
  // (the warm-vs-cold regression test pins this ordering).
  const double cold_seconds = timer.elapsed_seconds();
  warmup_latency_.record_seconds(cold_seconds);
  warmup_seconds_.add(cold_seconds);
  return tuned;
}

inline SelectionService::Answer SelectionService::adopt(Shard& shard,
                                                        Entry& entry) {
  if (entry.ready.load(std::memory_order_acquire)) {
    // Hot path: published entries are immutable, no entry lock needed, and
    // the hit count goes to the shard's stripe, not a global line.
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return answer(entry, "hit");
  }
  coalesced_waits_.add();
  entry.wait();
  return answer(entry, "coalesced_wait");
}

inline SelectionService::Answer SelectionService::answer(
    const Entry& entry, const char* outcome) {
  if (entry.fallback) fallbacks_served_.add();
  return {entry.config, entry.error, entry.fallback, outcome};
}

void SelectionService::write_behind(
    store::SelectionRecord record,
    std::vector<store::SelectionRecord>* wave) {
  if (wave != nullptr) {
    wave->push_back(std::move(record));
  } else {
    (void)store_->put(std::move(record));
  }
}

std::optional<store::SelectionRecord> SelectionService::make_record(
    const gemm::GemmShape& shape, const gemm::KernelConfig& config,
    double seconds) const {
  store::SelectionRecord record;
  record.device_fingerprint = device_fingerprint_;
  record.shape = shape;
  try {
    record.config_index =
        static_cast<std::uint32_t>(gemm::config_index(config));
  } catch (const common::Error&) {
    // Non-canonical config (custom warm-up fn): nothing to persist.
    return std::nullopt;
  }
  record.warmup_seconds = seconds;
  record.sweeps = 1;
  if (tuner_ != nullptr) {
    record.quarantined_candidates =
        static_cast<std::uint32_t>(tuner_->quarantined().size());
  }
  record.source = record_source_;
  return record;
}

void SelectionService::sync_hits() const {
  aks::MutexLock lock(sync_mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits.load(std::memory_order_relaxed);
  }
  // Shard stripes only grow and synced_hits_ (the total already folded in)
  // only advances here under the sync mutex, so the delta is non-negative
  // and never double-counted — independent of what else hits_ reports.
  hits_.add(total - synced_hits_);
  synced_hits_ = total;
}

const common::MetricsRegistry& SelectionService::metrics() const {
  sync_hits();
  return metrics_;
}

ServiceStats SelectionService::stats() const {
  ServiceStats stats;
  sync_hits();
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.coalesced_waits = coalesced_waits_.value();
  stats.duplicate_sweeps = duplicate_sweeps_.value();
  stats.warmup_failures = warmup_failures_.value();
  stats.fallbacks_served = fallbacks_served_.value();
  stats.preloaded = preloaded_.value();
  stats.transfer_priors = transfer_priors_.value();
  stats.provisional_refreshes = provisional_refreshes_.value();
  stats.batch_requests = batch_requests_.value();
  stats.batch_shapes = batch_shapes_.value();
  stats.batch_dedup = batch_dedup_.value();
  stats.batch_wave_shapes = batch_wave_shapes_.value();
  stats.warmup_seconds = warmup_seconds_.value();
  for (const auto& shard : shards_) {
    aks::MutexLock lock(shard->m);
    stats.cached_shapes += shard->map.size();
  }
  return stats;
}

}  // namespace aks::serve
