#include "store/selection_store.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "store/journal.hpp"
#include "trace/trace.hpp"

namespace aks::store {

SelectionStore::SelectionStore(std::filesystem::path path,
                               StoreOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  const JournalContents contents = read_journal(path_, options_.strict);
  // No concurrent access is possible during construction, but the replay
  // below funnels through put_locked(), whose AKS_REQUIRES(mutex_) contract
  // is checked at every call site — constructors included.
  aks::MutexLock lock(mutex_);
  stats_.records_loaded = contents.stats.records;
  stats_.corrupt_tail_records = contents.stats.corrupt_tail_records;
  stats_.bytes_dropped = contents.stats.bytes_dropped;

  for (const RawRecord& raw : contents.records) {
    try {
      if (raw.kind == RecordKind::kDeviceProfile) {
        DeviceProfileRecord profile = decode_device_profile(raw.payload);
        devices_[profile.fingerprint] = std::move(profile);
      } else {
        // Last record for a key wins: append-only upserts replay in order.
        (void)put_locked(decode_selection(raw.payload), /*from_load=*/true);
      }
    } catch (const common::Error&) {
      if (options_.strict) throw;
      ++stats_.rejected_malformed;
    }
  }
  // Loading replays history, it does not create new dirt.
  dirty_.clear();
  dirty_devices_.clear();
}

bool SelectionStore::put_locked(SelectionRecord record, bool from_load) {
  const auto& configs = gemm::enumerate_configs();
  if (record.config_index >= configs.size()) {
    AKS_CHECK(!options_.strict, "store " << path_ << ": config index "
                                         << record.config_index
                                         << " out of range");
    ++stats_.rejected_malformed;
    return false;
  }
  if (!gemm::valid_shape(record.shape)) {
    AKS_CHECK(!options_.strict, "store " << path_ << ": invalid GEMM shape "
                                         << record.shape.to_string());
    ++stats_.rejected_malformed;
    return false;
  }
  if (!options_.certified_mask.empty()) {
    const bool certified =
        record.config_index < options_.certified_mask.size() &&
        options_.certified_mask[record.config_index];
    if (!certified) {
      AKS_CHECK(!options_.strict,
                "store " << path_ << ": config "
                         << configs[record.config_index].name()
                         << " has no SAFE certificate");
      ++stats_.rejected_uncertified;
      return false;
    }
  }
  if (!options_.cert_digests.empty() &&
      record.config_index < options_.cert_digests.size()) {
    const std::uint64_t expected = options_.cert_digests[record.config_index];
    if (record.cert_digest == 0) {
      record.cert_digest = expected;
    } else if (expected != 0 && record.cert_digest != expected) {
      AKS_CHECK(!options_.strict,
                "store " << path_ << ": certificate digest mismatch for "
                         << configs[record.config_index].name()
                         << " (certificates changed since the store was "
                            "written)");
      ++stats_.rejected_digest;
      return false;
    }
  }

  const Key key{record.device_fingerprint, record.shape};
  selections_[key] = record;
  if (!from_load &&
      std::find(dirty_.begin(), dirty_.end(), key) == dirty_.end()) {
    dirty_.push_back(key);
  }
  return true;
}

std::optional<SelectionRecord> SelectionStore::lookup(
    std::uint64_t device_fingerprint, const gemm::GemmShape& shape) const {
  aks::MutexLock lock(mutex_);
  const auto it = selections_.find(Key{device_fingerprint, shape});
  if (it == selections_.end()) return std::nullopt;
  return it->second;
}

std::optional<SelectionStore::TransferPrior> SelectionStore::lookup_transfer(
    const perf::DeviceSpec& device, const gemm::GemmShape& shape) const {
  aks::MutexLock lock(mutex_);
  ++stats_.transfer_lookups;
  const std::uint64_t own = device.fingerprint();
  const auto own_features = device.similarity_features();

  struct Ranked {
    double similarity;
    const DeviceProfileRecord* profile;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(devices_.size());
  for (const auto& [fingerprint, profile] : devices_) {
    if (fingerprint == own) continue;
    ranked.push_back(
        {feature_similarity(own_features, profile.features), &profile});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.profile->name < b.profile->name;  // deterministic tie-break
  });

  for (const Ranked& r : ranked) {
    const auto it = selections_.find(Key{r.profile->fingerprint, shape});
    if (it == selections_.end()) continue;
    ++stats_.transfer_hits;
    return TransferPrior{it->second, r.profile->name, r.similarity};
  }
  return std::nullopt;
}

bool SelectionStore::put(SelectionRecord record) {
  aks::MutexLock lock(mutex_);
  return put_locked(std::move(record), /*from_load=*/false);
}

std::size_t SelectionStore::put_batch(std::vector<SelectionRecord> records) {
  if (records.empty()) return 0;
  aks::MutexLock lock(mutex_);
  std::size_t accepted = 0;
  for (SelectionRecord& record : records) {
    if (put_locked(std::move(record), /*from_load=*/false)) ++accepted;
  }
  return accepted;
}

void SelectionStore::put_device(const perf::DeviceSpec& spec) {
  put_profile(DeviceProfileRecord::from_spec(spec));
}

void SelectionStore::put_profile(DeviceProfileRecord profile) {
  aks::MutexLock lock(mutex_);
  const std::uint64_t fingerprint = profile.fingerprint;
  const auto it = devices_.find(fingerprint);
  const bool changed = it == devices_.end() || !(it->second == profile);
  devices_[fingerprint] = std::move(profile);
  if (changed && std::find(dirty_devices_.begin(), dirty_devices_.end(),
                           fingerprint) == dirty_devices_.end()) {
    dirty_devices_.push_back(fingerprint);
  }
}

std::size_t SelectionStore::flush() {
  aks::MutexLock lock(mutex_);
  if (dirty_.empty() && dirty_devices_.empty()) return 0;

  trace::Span span;
  if (trace::enabled()) {
    span.arm("store.flush",
             {trace::arg("dirty", dirty_.size() + dirty_devices_.size())});
  }
  JournalWriter writer(path_);
  std::size_t persisted = 0;
  std::vector<std::uint8_t> payload;
  try {
    // Profiles first: a reader of a partially flushed journal can then
    // always resolve the fingerprints of the selections that follow.
    while (!dirty_devices_.empty()) {
      payload.clear();
      encode(devices_.at(dirty_devices_.front()), payload);
      writer.append(RecordKind::kDeviceProfile, payload);
      dirty_devices_.erase(dirty_devices_.begin());
      ++persisted;
    }
    while (!dirty_.empty()) {
      payload.clear();
      encode(selections_.at(dirty_.front()), payload);
      writer.append(RecordKind::kSelection, payload);
      dirty_.erase(dirty_.begin());
      ++persisted;
    }
  } catch (const common::Error&) {
    // The persisted prefix is durable; the failed record and everything
    // after it stay dirty, so a retry after the fault resolves no-ops the
    // already-flushed entries and re-attempts the rest.
    stats_.appended += persisted;
    ++stats_.write_failures;
    span.annotate(trace::arg("outcome", "failed"));
    span.annotate(trace::arg("persisted", persisted));
    throw;
  }
  stats_.appended += persisted;
  span.annotate(trace::arg("persisted", persisted));
  return persisted;
}

std::vector<RawRecord> SelectionStore::live_records_locked() const {
  std::vector<RawRecord> records;
  records.reserve(devices_.size() + selections_.size());
  for (const auto& [fingerprint, profile] : devices_) {
    RawRecord raw;
    raw.kind = RecordKind::kDeviceProfile;
    encode(profile, raw.payload);
    records.push_back(std::move(raw));
  }
  for (const auto& [key, record] : selections_) {
    RawRecord raw;
    raw.kind = RecordKind::kSelection;
    encode(record, raw.payload);
    records.push_back(std::move(raw));
  }
  return records;
}

void SelectionStore::compact() {
  aks::MutexLock lock(mutex_);
  trace::Span span;
  if (trace::enabled()) {
    span.arm("store.compact",
             {trace::arg("live", devices_.size() + selections_.size())});
  }
  try {
    compact_journal(path_, live_records_locked());
  } catch (const common::Error&) {
    ++stats_.write_failures;
    span.annotate(trace::arg("outcome", "failed"));
    throw;
  }
  // The rewrite persisted the full live set, dirty entries included.
  dirty_.clear();
  dirty_devices_.clear();
}

std::vector<SelectionRecord> SelectionStore::selections() const {
  aks::MutexLock lock(mutex_);
  std::vector<SelectionRecord> out;
  out.reserve(selections_.size());
  for (const auto& [key, record] : selections_) out.push_back(record);
  return out;
}

std::vector<DeviceProfileRecord> SelectionStore::devices() const {
  aks::MutexLock lock(mutex_);
  std::vector<DeviceProfileRecord> out;
  out.reserve(devices_.size());
  for (const auto& [fingerprint, profile] : devices_) out.push_back(profile);
  return out;
}

std::size_t SelectionStore::merge_from(const SelectionStore& other) {
  // Snapshot the other store first so lock order cannot deadlock even if
  // someone merges two stores into each other concurrently.
  const auto other_devices = other.devices();
  const auto other_selections = other.selections();

  aks::MutexLock lock(mutex_);
  std::size_t adopted = 0;
  for (const DeviceProfileRecord& profile : other_devices) {
    if (devices_.contains(profile.fingerprint)) continue;
    devices_[profile.fingerprint] = profile;
    dirty_devices_.push_back(profile.fingerprint);
    ++adopted;
  }
  for (const SelectionRecord& record : other_selections) {
    const Key key{record.device_fingerprint, record.shape};
    if (selections_.contains(key)) continue;  // left-biased: ours wins
    if (put_locked(record, /*from_load=*/false)) ++adopted;
  }
  return adopted;
}

StoreStats SelectionStore::stats() const {
  aks::MutexLock lock(mutex_);
  StoreStats stats = stats_;
  stats.selections = selections_.size();
  stats.devices = devices_.size();
  stats.dirty = dirty_.size() + dirty_devices_.size();
  return stats;
}

}  // namespace aks::store
