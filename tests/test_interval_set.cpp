// IntervalSet: canonical representation, algebra, and a randomized
// differential test against a naive point-set model.
#include <gtest/gtest.h>

#include <set>

#include "util/interval_set.h"
#include "util/rng.h"

namespace sdpm {
namespace {

TEST(IntervalSet, EmptyByDefault) {
  IntervalSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_length(), 0);
  EXPECT_FALSE(set.contains(0));
}

TEST(IntervalSet, EmptyIntervalsAreDropped) {
  IntervalSet set;
  set.insert(5, 5);
  set.insert(7, 3);
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, InsertDisjoint) {
  IntervalSet set;
  set.insert(0, 2);
  set.insert(10, 12);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.total_length(), 4);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(11));
  EXPECT_FALSE(set.contains(2));
  EXPECT_FALSE(set.contains(9));
}

TEST(IntervalSet, AdjacentIntervalsCoalesce) {
  IntervalSet set;
  set.insert(0, 5);
  set.insert(5, 10);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 10}));
}

TEST(IntervalSet, OverlappingIntervalsMerge) {
  IntervalSet set;
  set.insert(0, 6);
  set.insert(4, 10);
  set.insert(20, 30);
  set.insert(8, 22);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 30}));
}

TEST(IntervalSet, InsertBridgingManyIntervals) {
  IntervalSet set;
  for (int i = 0; i < 10; ++i) set.insert(i * 10, i * 10 + 5);
  EXPECT_EQ(set.size(), 10u);
  set.insert(3, 97);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 97}));
}

TEST(IntervalSet, CanonicalEquality) {
  IntervalSet a;
  a.insert(0, 5);
  a.insert(5, 10);
  IntervalSet b;
  b.insert(0, 10);
  EXPECT_EQ(a, b);
}

TEST(IntervalSet, ConstructorNormalizes) {
  IntervalSet set({{8, 12}, {0, 4}, {3, 9}, {20, 20}});
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 12}));
}

TEST(IntervalSet, GapsWithin) {
  IntervalSet set;
  set.insert(2, 4);
  set.insert(8, 10);
  const IntervalSet gaps = set.gaps_within(0, 12);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps.intervals()[0], (Interval{0, 2}));
  EXPECT_EQ(gaps.intervals()[1], (Interval{4, 8}));
  EXPECT_EQ(gaps.intervals()[2], (Interval{10, 12}));
}

TEST(IntervalSet, GapsOfEmptySetIsWholeRange) {
  IntervalSet set;
  const IntervalSet gaps = set.gaps_within(5, 9);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps.intervals()[0], (Interval{5, 9}));
}

TEST(IntervalSet, GapsComplementPartitionsRange) {
  IntervalSet set;
  set.insert(0, 3);
  set.insert(7, 20);
  const IntervalSet gaps = set.gaps_within(0, 20);
  EXPECT_EQ(set.total_length() + gaps.total_length(), 20);
  EXPECT_FALSE(set.intersects(gaps));
}

TEST(IntervalSet, Clipped) {
  IntervalSet set;
  set.insert(0, 10);
  set.insert(20, 30);
  const IntervalSet clipped = set.clipped(5, 25);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped.intervals()[0], (Interval{5, 10}));
  EXPECT_EQ(clipped.intervals()[1], (Interval{20, 25}));
}

TEST(IntervalSet, Intersects) {
  IntervalSet a;
  a.insert(0, 5);
  a.insert(10, 15);
  IntervalSet b;
  b.insert(5, 10);
  EXPECT_FALSE(a.intersects(b));
  b.insert(14, 16);
  EXPECT_TRUE(a.intersects(b));
}

TEST(IntervalSet, MergeUnionsSets) {
  IntervalSet a;
  a.insert(0, 5);
  IntervalSet b;
  b.insert(3, 8);
  b.insert(10, 12);
  a.merge(b);
  EXPECT_EQ(a.total_length(), 10);
  EXPECT_EQ(a.size(), 2u);
}

// Differential test: random inserts against a std::set<int64_t> of points.
TEST(IntervalSetProperty, MatchesNaivePointModel) {
  SplitMix64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet set;
    std::set<std::int64_t> points;
    for (int op = 0; op < 200; ++op) {
      const std::int64_t lo = static_cast<std::int64_t>(rng.next_below(300));
      const std::int64_t len = static_cast<std::int64_t>(rng.next_below(20));
      set.insert(lo, lo + len);
      for (std::int64_t x = lo; x < lo + len; ++x) points.insert(x);
    }
    EXPECT_EQ(set.total_length(), static_cast<std::int64_t>(points.size()));
    for (std::int64_t x = 0; x < 330; ++x) {
      ASSERT_EQ(set.contains(x), points.count(x) == 1) << "point " << x;
    }
    // Canonical form: sorted, disjoint, non-adjacent.
    const auto& ivs = set.intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      ASSERT_GT(ivs[i].lo, ivs[i - 1].hi);
    }
  }
}

// append() in start order builds what insert() builds: repeated starts,
// overlaps, touching and separated intervals, and empty ones.
TEST(IntervalSetProperty, AppendInStartOrderMatchesInsert) {
  SplitMix64 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet appended;
    IntervalSet inserted;
    std::int64_t lo = 0;
    for (int op = 0; op < 200; ++op) {
      lo += static_cast<std::int64_t>(rng.next_below(4));
      const std::int64_t hi = lo + static_cast<std::int64_t>(rng.next_below(4));
      appended.append(lo, hi);
      inserted.insert(lo, hi);
    }
    EXPECT_EQ(appended, inserted) << "trial " << trial;
  }
}

TEST(IntervalSetProperty, GapsRoundTrip) {
  SplitMix64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet set;
    for (int op = 0; op < 50; ++op) {
      const std::int64_t lo = static_cast<std::int64_t>(rng.next_below(1000));
      set.insert(lo, lo + 1 + static_cast<std::int64_t>(rng.next_below(30)));
    }
    const IntervalSet gaps = set.gaps_within(0, 1100);
    // gaps of gaps == clipped original
    const IntervalSet back = gaps.gaps_within(0, 1100);
    EXPECT_EQ(back, set.clipped(0, 1100));
  }
}

}  // namespace
}  // namespace sdpm
