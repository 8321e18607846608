// Persistent selection store — the durable tuning cache over the journal.
//
// A SelectionStore maps (device fingerprint, GemmShape) to the tuned
// SelectionRecord, loaded from an append-only journal (journal.hpp) and
// mutated write-behind: put() only updates memory and marks the entry
// dirty; flush() appends the dirty set, so the serving hot path never
// touches the filesystem. Append-only means the last record for a key wins
// on load — an upsert is just another append, and compact() folds the
// history down to the live set with an atomic rename.
//
// Trust boundary: records are integrity-checked by the journal (CRC32,
// torn-tail recovery) and then *validated* here — an out-of-range config
// index, a config outside the certified-safe mask, or a certificate-digest
// mismatch rejects the record at load (counted, never served). A store is
// data, not code, but a stale or corrupt store must degrade to a cold
// start, never to serving an unsafe or unknown kernel.
//
// Cross-device transfer: when the running device's fingerprint has no
// entry for a shape, lookup_transfer() ranks the *stored* device profiles
// by architectural similarity (perfmodel feature space) and returns the
// nearest device's decision as a prior — the portability result of
// Lawson's follow-up paper. Callers count it and re-tune in the background
// (serve::SelectionService::refresh_provisional).
//
// All public methods are thread-safe (one mutex; the store sits behind the
// serving layer's single-flight warm-up, so it is never on the per-request
// hot path).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/shape.hpp"
#include "perfmodel/device_spec.hpp"
#include "store/journal.hpp"
#include "store/record.hpp"

namespace aks::store {

struct StoreOptions {
  /// Per-canonical-config certificate gate (index = canonical config
  /// index, true = certified SAFE). When non-empty, selections whose
  /// config is not certified are rejected at load and by put(). Typically
  /// check::symbolic::CertifyReport::safe_mask() carried across the
  /// process boundary — the store stays free of analysis-tool deps.
  std::vector<bool> certified_mask;
  /// Expected per-config certificate digests (0 = no expectation). A
  /// loaded record carrying a non-zero digest that disagrees is rejected:
  /// the certificate regime changed since the store was written.
  std::vector<std::uint64_t> cert_digests;
  /// Escalate any journal corruption or record rejection to common::Error
  /// instead of dropping and counting (import validation).
  bool strict = false;
};

struct StoreStats {
  // -- Load-time accounting (fixed after construction).
  std::size_t records_loaded = 0;
  std::size_t corrupt_tail_records = 0;
  std::size_t bytes_dropped = 0;
  std::size_t rejected_malformed = 0;
  std::size_t rejected_uncertified = 0;
  std::size_t rejected_digest = 0;

  // -- Live state.
  std::size_t selections = 0;
  std::size_t devices = 0;
  std::size_t dirty = 0;

  // -- Mutation/IO counters.
  std::size_t appended = 0;
  std::size_t write_failures = 0;
  std::size_t transfer_lookups = 0;
  std::size_t transfer_hits = 0;
};

class SelectionStore {
 public:
  /// Loads `path` (a missing file is an empty store). Throws common::Error
  /// on an unreadable header, or on any corruption when options.strict.
  explicit SelectionStore(std::filesystem::path path, StoreOptions options = {});

  SelectionStore(const SelectionStore&) = delete;
  SelectionStore& operator=(const SelectionStore&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Exact lookup for (fingerprint, shape).
  [[nodiscard]] std::optional<SelectionRecord> lookup(
      std::uint64_t device_fingerprint, const gemm::GemmShape& shape) const;

  struct TransferPrior {
    SelectionRecord record;       ///< the nearest device's decision
    std::string source_device;    ///< its stored profile name
    double similarity = 0.0;      ///< perfmodel feature-space similarity
  };

  /// Nearest-device prior for a shape the running device has no entry for:
  /// stored profiles are ranked by similarity to `device` (descending,
  /// name-tiebroken for determinism) and the closest one holding the shape
  /// wins. Returns nullopt when no stored device has the shape.
  [[nodiscard]] std::optional<TransferPrior> lookup_transfer(
      const perf::DeviceSpec& device, const gemm::GemmShape& shape) const;

  /// Upserts a selection (write-behind; call flush() to persist). Fills an
  /// empty cert_digest from the expected-digest table when one is
  /// configured. Returns false — and stores nothing — when the config
  /// index is out of range, the shape breaks gemm::check_shape (both
  /// counted in rejected_malformed; common::Error under options.strict), or
  /// the record fails the certificate gate. Journal load, merge_from and
  /// CSV import apply the same validation.
  bool put(SelectionRecord record);

  /// Upserts a whole wave of selections under one lock acquisition — the
  /// write-behind path for serve::SelectionService::select_batch, which
  /// enqueues the records of a cold miss wave together instead of taking
  /// the store mutex once per shape. Same per-record validation as put();
  /// returns how many records were accepted.
  std::size_t put_batch(std::vector<SelectionRecord> records);

  /// Upserts the device profile that makes this fingerprint transferable.
  void put_device(const perf::DeviceSpec& spec);
  /// Upserts a raw persisted profile (import/merge path; prefer put_device
  /// when a live DeviceSpec is at hand).
  void put_profile(DeviceProfileRecord profile);

  /// Appends every dirty record to the journal; returns how many were
  /// persisted. On a write failure the persisted prefix is clean, the rest
  /// stays dirty for retry, and the error propagates (callers on the
  /// serving path catch and degrade — losing warm-start data must never
  /// take serving down).
  std::size_t flush();

  /// Rewrites the journal to exactly the live set (atomic rename), folding
  /// superseded appends away. Flushes dirty entries as part of the rewrite.
  void compact();

  /// Live selections, ordered by (fingerprint, shape) for determinism.
  [[nodiscard]] std::vector<SelectionRecord> selections() const;
  /// Stored device profiles, ordered by fingerprint.
  [[nodiscard]] std::vector<DeviceProfileRecord> devices() const;

  /// Folds `other`'s live set into this store: profiles union; selections
  /// union, keeping the existing record on key conflicts (left-biased, so
  /// merge order is an explicit policy choice of the caller).
  std::size_t merge_from(const SelectionStore& other);

  [[nodiscard]] StoreStats stats() const;

 private:
  using Key = std::pair<std::uint64_t, gemm::GemmShape>;

  bool put_locked(SelectionRecord record, bool from_load)
      AKS_REQUIRES(mutex_);
  [[nodiscard]] std::vector<RawRecord> live_records_locked() const
      AKS_REQUIRES(mutex_);

  std::filesystem::path path_;
  StoreOptions options_;

  // Lock order: store.state ("store.state") before the journal's own
  // store.journal mutex — flush()/compact() append while holding mutex_.
  mutable aks::Mutex mutex_{"store.state"};
  std::map<Key, SelectionRecord> selections_ AKS_GUARDED_BY(mutex_);
  std::map<std::uint64_t, DeviceProfileRecord> devices_ AKS_GUARDED_BY(mutex_);
  /// selection keys to flush
  std::vector<Key> dirty_ AKS_GUARDED_BY(mutex_);
  /// profile keys to flush
  std::vector<std::uint64_t> dirty_devices_ AKS_GUARDED_BY(mutex_);
  /// mutable: const lookups still count (transfer_lookups/hits telemetry).
  mutable StoreStats stats_ AKS_GUARDED_BY(mutex_);
};

}  // namespace aks::store
