#include "service/store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>

#include "obs/metrics.h"
#include "service/telemetry.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/fingerprint.h"
#include "util/strings.h"

namespace sdpm::service {
namespace {

/// Records the enclosing scope's wall duration into a telemetry stage
/// (no-op with null telemetry — the standalone-store fast path).
class StageTimer {
 public:
  StageTimer(ServiceTelemetry* telemetry, Stage stage)
      : telemetry_(telemetry), stage_(stage),
        t0_(telemetry == nullptr ? std::chrono::steady_clock::time_point{}
                                 : std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    if (telemetry_ == nullptr) return;
    telemetry_->record(stage_,
                       std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0_)
                           .count());
  }

 private:
  ServiceTelemetry* telemetry_;
  Stage stage_;
  std::chrono::steady_clock::time_point t0_;
};

// Entry file layout: 8-byte magic, 4-byte big-endian CRC32 of the payload,
// 4-byte big-endian payload length, payload bytes.
constexpr char kMagic[8] = {'S', 'D', 'P', 'M', 'S', 'T', 'O', '1'};
constexpr std::size_t kHeaderBytes = 16;

/// mkdir -p: create every missing component of `path`.
void make_dirs(const std::string& path) {
  std::string partial;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i);
    if (partial.empty() || partial == ".") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw Error(str_printf("store: cannot create directory %s: %s",
                             partial.c_str(), std::strerror(errno)));
    }
  }
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error(str_printf("store: cannot create directory %s: %s",
                           path.c_str(), std::strerror(errno)));
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string data;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return data;
}

}  // namespace

PersistentStore::PersistentStore(StoreOptions options)
    : options_(std::move(options)) {
  SDPM_REQUIRE(!options_.directory.empty(),
               "PersistentStore needs a directory");
  SDPM_REQUIRE(options_.max_bytes > 0, "store budget must be positive");
  const std::string objects = options_.directory + "/objects";
  make_dirs(objects);

  // Index existing entries, oldest-mtime first so the LRU list ends up
  // most-recent at the front.  Stale temp files from a crashed writer are
  // removed; anything else unrecognized is left alone.
  struct Found {
    ContentKey key;
    std::int64_t bytes = 0;
    std::int64_t mtime = 0;
    std::string name;  // mtime tie-breaker: deterministic order
  };
  std::vector<Found> found;
  DIR* dir = ::opendir(objects.c_str());
  if (dir == nullptr) {
    throw Error(str_printf("store: cannot scan %s: %s", objects.c_str(),
                           std::strerror(errno)));
  }
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    const std::string path = objects + "/" + name;
    if (name.rfind(".tmp_", 0) == 0) {
      ::unlink(path.c_str());
      continue;
    }
    if (name.size() != 36 || name.substr(32) != ".bin") continue;
    const auto key = content_key_from_hex(name.substr(0, 32));
    if (!key.has_value()) continue;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    const std::int64_t payload =
        std::max<std::int64_t>(0, st.st_size -
                                      static_cast<std::int64_t>(kHeaderBytes));
    found.push_back(Found{*key, payload, st.st_mtime, name});
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end(), [](const Found& x, const Found& y) {
    return x.mtime != y.mtime ? x.mtime < y.mtime : x.name < y.name;
  });
  for (const Found& f : found) {
    lru_.push_front(Entry{f.key, f.bytes});
    index_.emplace(f.key, lru_.begin());
    bytes_ += f.bytes;
  }
  std::lock_guard lock(mutex_);
  evict_to_budget_locked();
  publish_gauges_locked();
}

std::string PersistentStore::object_path(const ContentKey& key) const {
  return options_.directory + "/objects/" + to_hex(key) + ".bin";
}

std::optional<std::string> PersistentStore::get(const ContentKey& key) {
  const StageTimer timer(options_.telemetry, Stage::kStoreGet);
  std::lock_guard lock(mutex_);
  auto& metrics = obs::MetricsRegistry::global();
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    metrics.add("store.misses");
    return std::nullopt;
  }
  const auto data = read_file(object_path(key));
  bool valid = data.has_value() && data->size() >= kHeaderBytes &&
               std::memcmp(data->data(), kMagic, sizeof(kMagic)) == 0;
  if (valid) {
    const std::uint32_t crc = get_u32_be(data->data() + 8);
    const std::uint32_t length = get_u32_be(data->data() + 12);
    valid = data->size() == kHeaderBytes + length &&
            crc32(std::string_view(*data).substr(kHeaderBytes)) == crc;
  }
  if (!valid) {
    quarantine_locked(key);
    ++misses_;
    metrics.add("store.misses");
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  metrics.add("store.hits");
  return data->substr(kHeaderBytes);
}

void PersistentStore::put(const ContentKey& key, std::string_view value) {
  const StageTimer timer(options_.telemetry, Stage::kStorePut);
  std::lock_guard lock(mutex_);
  const auto existing = index_.find(key);
  if (existing != index_.end()) {
    lru_.splice(lru_.begin(), lru_, existing->second);
    return;  // content-addressed: an entry's payload never changes
  }
  if (static_cast<std::int64_t>(value.size()) > options_.max_bytes) {
    return;  // larger than the whole budget: never storable
  }

  // Write temp-then-rename so a crash mid-write leaves no visible entry.
  const std::string temp = options_.directory + "/objects/" +
                           str_printf(".tmp_%ld_%llu",
                                      static_cast<long>(::getpid()),
                                      static_cast<unsigned long long>(
                                          ++temp_seq_));
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    throw Error(str_printf("store: cannot create %s: %s", temp.c_str(),
                           std::strerror(errno)));
  }
  std::string header(kMagic, sizeof(kMagic));
  put_u32_be(header, crc32(value));
  put_u32_be(header, static_cast<std::uint32_t>(value.size()));
  bool ok = std::fwrite(header.data(), 1, header.size(), file) ==
            header.size();
  ok = ok && (value.empty() ||
              std::fwrite(value.data(), 1, value.size(), file) ==
                  value.size());
  ok = std::fflush(file) == 0 && ok;
  std::fclose(file);
  if (!ok || ::rename(temp.c_str(), object_path(key).c_str()) != 0) {
    ::unlink(temp.c_str());
    throw Error(str_printf("store: cannot write entry %s: %s",
                           to_hex(key).c_str(), std::strerror(errno)));
  }

  lru_.push_front(Entry{key, static_cast<std::int64_t>(value.size())});
  index_.emplace(key, lru_.begin());
  bytes_ += static_cast<std::int64_t>(value.size());
  evict_to_budget_locked();
  publish_gauges_locked();
}

bool PersistentStore::contains(const ContentKey& key) const {
  std::lock_guard lock(mutex_);
  return index_.count(key) > 0;
}

void PersistentStore::quarantine_locked(const ContentKey& key) {
  const std::string path = object_path(key);
  const std::string corrupt =
      options_.directory + "/objects/" + to_hex(key) + ".corrupt";
  if (::rename(path.c_str(), corrupt.c_str()) != 0) {
    ::unlink(path.c_str());  // rename failed (e.g. ENOENT): best effort
  }
  erase_index_locked(key);
  ++corrupt_;
  obs::MetricsRegistry::global().add("store.corrupt_evictions");
  publish_gauges_locked();
}

void PersistentStore::erase_index_locked(const ContentKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
}

void PersistentStore::evict_to_budget_locked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const ContentKey victim = lru_.back().key;
    ::unlink(object_path(victim).c_str());
    erase_index_locked(victim);
    ++evictions_;
    obs::MetricsRegistry::global().add("store.evictions");
  }
}

void PersistentStore::publish_gauges_locked() const {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_gauge("store.entries", static_cast<double>(index_.size()));
  metrics.set_gauge("store.bytes", static_cast<double>(bytes_));
}

StoreStats PersistentStore::stats() const {
  std::lock_guard lock(mutex_);
  StoreStats stats;
  stats.entries = index_.size();
  stats.bytes = bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.corrupt_evictions = corrupt_;
  return stats;
}

}  // namespace sdpm::service
