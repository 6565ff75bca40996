// BufferCache: LRU semantics and byte budgeting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "reference_lru.h"
#include "trace/buffer_cache.h"
#include "util/rng.h"

namespace sdpm::trace {
namespace {

TEST(BufferCache, MissThenHit) {
  BufferCache cache(1024);
  EXPECT_FALSE(cache.access(0, 0, 256));
  EXPECT_TRUE(cache.access(0, 0, 256));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(BufferCache, DistinctArraysDistinctEntries) {
  BufferCache cache(1024);
  EXPECT_FALSE(cache.access(0, 7, 256));
  EXPECT_FALSE(cache.access(1, 7, 256));
  EXPECT_TRUE(cache.access(0, 7, 256));
  EXPECT_TRUE(cache.access(1, 7, 256));
}

TEST(BufferCache, EvictsLeastRecentlyUsed) {
  BufferCache cache(512);  // two 256-byte blocks
  cache.access(0, 0, 256);
  cache.access(0, 1, 256);
  cache.access(0, 0, 256);  // refresh block 0
  cache.access(0, 2, 256);  // evicts block 1
  EXPECT_TRUE(cache.access(0, 0, 256));
  EXPECT_FALSE(cache.access(0, 1, 256));
}

TEST(BufferCache, ZeroCapacityAlwaysMisses) {
  BufferCache cache(0);
  EXPECT_FALSE(cache.access(0, 0, 8));
  EXPECT_FALSE(cache.access(0, 0, 8));
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.bytes_used(), 0);
}

TEST(BufferCache, OversizedBlockNotCached) {
  BufferCache cache(100);
  EXPECT_FALSE(cache.access(0, 0, 200));
  EXPECT_FALSE(cache.access(0, 0, 200));  // still a miss
  EXPECT_EQ(cache.bytes_used(), 0);
}

TEST(BufferCache, BytesUsedTracksContents) {
  BufferCache cache(1000);
  cache.access(0, 0, 300);
  cache.access(0, 1, 300);
  EXPECT_EQ(cache.bytes_used(), 600);
  cache.access(0, 2, 300);
  EXPECT_EQ(cache.bytes_used(), 900);
  cache.access(0, 3, 300);  // evicts block 0
  EXPECT_EQ(cache.bytes_used(), 900);
}

TEST(BufferCache, CyclicSweepLargerThanCacheAlwaysMisses) {
  // The classic LRU worst case the workloads rely on: sweeping N+1 blocks
  // through an N-block cache misses on every access, every sweep.
  BufferCache cache(4 * 64);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::int64_t b = 0; b < 5; ++b) {
      EXPECT_FALSE(cache.access(0, b, 64)) << "sweep " << sweep << " b " << b;
    }
  }
  EXPECT_EQ(cache.misses(), 15);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(BufferCache, WorkingSetThatFitsStaysResident) {
  BufferCache cache(4 * 64);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::int64_t b = 0; b < 4; ++b) {
      cache.access(0, b, 64);
    }
  }
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 8);
}

TEST(BufferCache, VariableBlockSizesEvictUntilFit) {
  BufferCache cache(1000);
  cache.access(0, 0, 400);
  cache.access(0, 1, 400);
  cache.access(0, 2, 900);  // must evict both
  EXPECT_EQ(cache.bytes_used(), 900);
  EXPECT_FALSE(cache.access(0, 0, 400));
}

TEST(BufferCache, AnchorPlacesRightBelowIt) {
  BufferCache cache(3 * 64);
  cache.access(0, 0, 64);
  cache.access(0, 1, 64);  // order: 1 0
  const CacheBlock anchor{0, 1};
  cache.access(0, 2, 64, &anchor);  // 1 2 0
  cache.access(0, 3, 64);           // 3 1 2; evicts 0
  EXPECT_FALSE(cache.access(0, 0, 64));  // 0 3 1; evicts 2, not 1
  EXPECT_TRUE(cache.access(0, 1, 64));
  EXPECT_FALSE(cache.access(0, 2, 64));
}

TEST(BufferCache, EvictingAnOwnBlockSetsTheNestFlag) {
  BufferCache cache(2 * 64);
  cache.begin_nest(0);
  cache.access(0, 0, 64);
  cache.access(0, 1, 64);
  cache.begin_nest(1);
  cache.access(0, 2, 64);  // evicts block 0, nest 0's
  cache.access(0, 3, 64);  // evicts block 1, nest 0's
  EXPECT_FALSE(cache.evicted_own());
  cache.access(0, 4, 64);  // evicts block 2, the nest's own
  EXPECT_TRUE(cache.evicted_own());
  cache.begin_nest(2);
  EXPECT_FALSE(cache.evicted_own());
}

TEST(BufferCache, OversizeInsertSetsTheNestFlag) {
  BufferCache cache(100);
  cache.begin_nest(0);
  cache.access(0, 0, 50);
  cache.begin_nest(1);
  EXPECT_FALSE(cache.access(0, 1, 200));  // empties the cache
  EXPECT_TRUE(cache.evicted_own());
  EXPECT_EQ(cache.bytes_used(), 0);
  cache.begin_nest(2);
  EXPECT_FALSE(cache.access(0, 1, 200));  // nothing left to evict
  EXPECT_TRUE(cache.evicted_own());
}

TEST(BufferCache, ZeroCapacitySetsTheNestFlagAtOnce) {
  // A cache that keeps nothing forgets every nest before it, touched or
  // not.
  BufferCache cache(0);
  cache.begin_nest(3);
  EXPECT_TRUE(cache.evicted_own());
  cache.access(0, 0, 8);
  EXPECT_TRUE(cache.evicted_own());
}

TEST(BufferCache, AHitRestampsAnOldBlock) {
  BufferCache cache(2 * 64);
  cache.begin_nest(0);
  cache.access(0, 0, 64);
  cache.access(0, 1, 64);
  cache.begin_nest(1);
  EXPECT_TRUE(cache.access(0, 0, 64));  // block 0 is now nest 1's
  cache.access(0, 2, 64);               // evicts block 1, nest 0's
  EXPECT_FALSE(cache.evicted_own());
  cache.access(0, 3, 64);  // evicts block 0, re-stamped by the hit
  EXPECT_TRUE(cache.evicted_own());
}

TEST(BufferCache, MatchesTheReferenceLru) {
  // Seeded sequences of (array, block, bytes) over a dense key space: each
  // cache holds about 40 entries of up to 256 keys, so the index grows
  // past its first size and keys collide in it, and the constant
  // evictions delete keys from the middle of probe runs.  A step reads a
  // variable size, an exact fit of the capacity or an oversize block, and
  // goes to the front or below an anchor that may or may not be resident,
  // or may be the touched block itself.
  for (const Bytes capacity : {Bytes{0}, Bytes{64}, Bytes{1000},
                               Bytes{4096}, mib(1)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string label = "capacity " + std::to_string(capacity) +
                                ", seed " + std::to_string(seed);
      SplitMix64 rng(seed * 1'000'003 + static_cast<std::uint64_t>(capacity));
      BufferCache cache(capacity);
      test::ReferenceLru reference(capacity);
      const auto max_bytes =
          static_cast<std::uint64_t>(std::max<Bytes>(1, capacity / 20));
      std::int64_t hits = 0;
      constexpr int kSteps = 20'000;
      for (int step = 0; step < kSteps; ++step) {
        const auto array = static_cast<ir::ArrayId>(rng.next_below(4));
        const auto block = static_cast<std::int64_t>(rng.next_below(64));
        Bytes bytes = 1 + static_cast<Bytes>(rng.next_below(max_bytes));
        const std::uint64_t size_kind = rng.next_below(100);
        if (size_kind == 0) bytes = capacity;                  // exact fit
        if (size_kind == 1) bytes = capacity + 1 + (step % 7);  // oversize
        CacheBlock anchor{static_cast<ir::ArrayId>(rng.next_below(4)),
                          static_cast<std::int64_t>(rng.next_below(64))};
        const std::uint64_t place = rng.next_below(4);
        if (place == 1) anchor = CacheBlock{array, block};
        const CacheBlock* at = place == 0 ? nullptr : &anchor;
        const bool expected = reference.access(array, block, bytes, at);
        ASSERT_EQ(cache.access(array, block, bytes, at), expected)
            << label << ", step " << step;
        ASSERT_EQ(cache.bytes_used(), reference.bytes_used())
            << label << ", step " << step;
        hits += expected ? 1 : 0;
      }
      EXPECT_EQ(cache.hits(), hits) << label;
      EXPECT_EQ(cache.misses(), kSteps - hits) << label;
      if (capacity > 0) {
        EXPECT_GT(hits, kSteps / 20) << label;
      }
    }
  }
}

}  // namespace
}  // namespace sdpm::trace
