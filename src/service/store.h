// Persistent content-addressed store: the durable layer under the
// in-memory TraceCache/result path of sdpm_serviced.
//
// Entries are keyed by a 128-bit ContentKey (util/fingerprint.h: the mixer
// behind experiments::TraceKey, applied by fingerprint_bytes to a job's
// canonical JSON) and live as individual files under
// `<dir>/objects/<to_hex(key)>.bin`.  Three durability properties the store
// tests pin down:
//
//   ATOMICITY    a put writes to a temp file in the same directory and
//                rename(2)s it into place, so a reader (or a crash) never
//                observes a half-written entry.
//   INTEGRITY    every entry carries a magic header, a CRC32 of the
//                payload and the payload length; a get that fails any
//                check QUARANTINES the file (renamed to `<key>.corrupt`),
//                counts store.corrupt_evictions, and reports a miss — a
//                flipped bit costs a recomputation, never a wrong result.
//   BOUNDEDNESS  total payload bytes are capped; puts evict
//                least-recently-used entries (recency is rebuilt from file
//                mtimes at open and tracked in memory afterwards).
//
// All operations are thread-safe.  Lookups report into the metrics
// registry as store.{hits,misses,corrupt_evictions,evictions} plus
// store.{entries,bytes} gauges.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "util/fingerprint.h"

namespace sdpm::service {

class ServiceTelemetry;

struct StoreOptions {
  std::string directory;                       ///< created if missing
  std::int64_t max_bytes = 256ll << 20;        ///< payload-byte budget
  /// When set (not owned), get/put self-time into the store_get /
  /// store_put latency stages.
  ServiceTelemetry* telemetry = nullptr;
};

struct StoreStats {
  std::size_t entries = 0;
  std::int64_t bytes = 0;        ///< payload bytes currently stored
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t corrupt_evictions = 0;
};

class PersistentStore {
 public:
  /// Open (creating directories as needed) and index every existing
  /// entry.  Malformed filenames are ignored; stale temp files from a
  /// crashed writer are removed.  Throws sdpm::Error when the directory
  /// cannot be created or scanned.
  explicit PersistentStore(StoreOptions options);

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// The payload stored under `key`, or nullopt on a miss.  A corrupt
  /// entry is quarantined and reported as a miss.
  std::optional<std::string> get(const ContentKey& key);

  /// Store `value` under `key` (no-op when the key is already present —
  /// content-addressed entries never change).  Values larger than the
  /// whole budget are skipped.  Evicts LRU entries to stay within budget.
  void put(const ContentKey& key, std::string_view value);

  bool contains(const ContentKey& key) const;

  StoreStats stats() const;
  const std::string& directory() const { return options_.directory; }

 private:
  struct Entry {
    ContentKey key;
    std::int64_t bytes = 0;
  };

  std::string object_path(const ContentKey& key) const;
  void quarantine_locked(const ContentKey& key);
  void erase_index_locked(const ContentKey& key);
  void evict_to_budget_locked();
  void publish_gauges_locked() const;

  StoreOptions options_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<ContentKey, std::list<Entry>::iterator> index_;
  std::int64_t bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t corrupt_ = 0;
  std::uint64_t temp_seq_ = 0;
};

}  // namespace sdpm::service
