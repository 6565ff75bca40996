// Persistent content-addressed store: atomic puts, checksum-verified gets
// with corrupt-entry quarantine, LRU eviction, and restart persistence.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "service/store.h"

namespace sdpm::service {
namespace {

namespace fs = std::filesystem;

std::string temp_store(const char* tag) {
  const fs::path path = fs::temp_directory_path() /
                        ("sdpm_store_" + std::string(tag) + "_" +
                         std::to_string(::getpid()));
  fs::remove_all(path);
  return path.string();
}

TEST(StoreKey, HexRoundTrips) {
  const ContentKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(to_hex(key), "0123456789abcdeffedcba9876543210");
  const auto parsed = content_key_from_hex(to_hex(key));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, key);
  EXPECT_EQ(content_key_from_hex("0123456789ABCDEFFEDCBA9876543210"), key);

  EXPECT_FALSE(content_key_from_hex("too-short").has_value());
  EXPECT_FALSE(content_key_from_hex(std::string(32, 'g')).has_value());
}

// Store file names and the journal's COMPLETE records carry this spelling,
// so entries written by an earlier build must keep resolving.
TEST(StoreKey, HexSpellingIsPinned) {
  EXPECT_EQ(to_hex(fingerprint_bytes("job-1")),
            "e7b8934acc580469653ce345a43e0ea5");
  const std::string dir = temp_store("spelling");
  PersistentStore store(StoreOptions{.directory = dir});
  store.put(fingerprint_bytes("job-1"), "payload");
  EXPECT_TRUE(
      fs::exists(dir + "/objects/e7b8934acc580469653ce345a43e0ea5.bin"));
  fs::remove_all(dir);
}

TEST(StoreKey, FingerprintSeparatesInputs) {
  const ContentKey a = fingerprint_bytes("{\"benchmark\":\"galgel\"}");
  const ContentKey b = fingerprint_bytes("{\"benchmark\":\"mesa\"}");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, fingerprint_bytes("{\"benchmark\":\"galgel\"}"));
  // Length is mixed in: a prefix does not collide with its extension.
  EXPECT_NE(fingerprint_bytes("ab"), fingerprint_bytes("abc"));
  EXPECT_NE(fingerprint_bytes(""), fingerprint_bytes(std::string(1, '\0')));
}

TEST(PersistentStore, RoundTripsAndCountsHits) {
  const std::string dir = temp_store("roundtrip");
  PersistentStore store(StoreOptions{.directory = dir});
  const ContentKey key = fingerprint_bytes("job-1");

  EXPECT_FALSE(store.get(key).has_value());
  store.put(key, "payload-1");
  EXPECT_TRUE(store.contains(key));
  const auto value = store.get(key);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "payload-1");

  // Content-addressed: a second put under the same key is a no-op.
  store.put(key, "different");
  EXPECT_EQ(*store.get(key), "payload-1");

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  fs::remove_all(dir);
}

TEST(PersistentStore, EntriesSurviveReopen) {
  const std::string dir = temp_store("reopen");
  const ContentKey key = fingerprint_bytes("durable-job");
  {
    PersistentStore store(StoreOptions{.directory = dir});
    store.put(key, "survives the restart");
  }
  PersistentStore reopened(StoreOptions{.directory = dir});
  EXPECT_EQ(reopened.stats().entries, 1u);
  const auto value = reopened.get(key);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "survives the restart");
  fs::remove_all(dir);
}

TEST(PersistentStore, CorruptEntryIsQuarantinedAndMissed) {
  const std::string dir = temp_store("corrupt");
  const ContentKey key = fingerprint_bytes("rot-victim");
  {
    PersistentStore store(StoreOptions{.directory = dir});
    store.put(key, "about to rot");
  }
  // Flip a payload bit on disk.
  const fs::path object = fs::path(dir) / "objects" / (to_hex(key) + ".bin");
  ASSERT_TRUE(fs::exists(object));
  {
    std::fstream file(object, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-2, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-2, std::ios::end);
    byte = static_cast<char>(byte ^ 0x01);
    file.write(&byte, 1);
  }

  PersistentStore reopened(StoreOptions{.directory = dir});
  EXPECT_FALSE(reopened.get(key).has_value());  // a miss, never garbage
  const StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.corrupt_evictions, 1);
  EXPECT_EQ(stats.entries, 0u);
  // The bad bytes are preserved for forensics, out of the object namespace.
  EXPECT_FALSE(fs::exists(object));
  EXPECT_TRUE(
      fs::exists(fs::path(dir) / "objects" / (to_hex(key) + ".corrupt")));
  // A fresh put under the same key works again.
  reopened.put(key, "recomputed");
  EXPECT_EQ(*reopened.get(key), "recomputed");
  fs::remove_all(dir);
}

TEST(PersistentStore, EvictsLeastRecentlyUsedAtBudget) {
  const std::string dir = temp_store("lru");
  // Budget fits exactly two 8-byte payloads.
  PersistentStore store(StoreOptions{.directory = dir, .max_bytes = 16});
  const ContentKey a = fingerprint_bytes("a");
  const ContentKey b = fingerprint_bytes("b");
  const ContentKey c = fingerprint_bytes("c");
  store.put(a, "payloadA");
  store.put(b, "payloadB");
  EXPECT_TRUE(store.get(a).has_value());  // a is now more recent than b
  store.put(c, "payloadC");               // evicts b, the LRU entry
  EXPECT_TRUE(store.contains(a));
  EXPECT_FALSE(store.contains(b));
  EXPECT_TRUE(store.contains(c));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes, 16);
  // An over-budget value is skipped outright, evicting nothing.
  store.put(fingerprint_bytes("huge"), std::string(64, 'x'));
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_TRUE(store.contains(a));
  fs::remove_all(dir);
}

TEST(PersistentStore, StaleTempFilesAreSweptAtOpen) {
  const std::string dir = temp_store("tmp");
  {
    PersistentStore store(StoreOptions{.directory = dir});
    store.put(fingerprint_bytes("real"), "real payload");
  }
  // A writer that died between temp-write and rename leaves a .tmp_ file.
  const fs::path straggler = fs::path(dir) / "objects" / ".tmp_1234_0";
  { std::ofstream(straggler) << "half-written"; }
  PersistentStore reopened(StoreOptions{.directory = dir});
  EXPECT_FALSE(fs::exists(straggler));
  EXPECT_EQ(reopened.stats().entries, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdpm::service
