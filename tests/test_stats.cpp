// RunningStats: Welford running mean, extrema and sum.
#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace sdpm {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, MatchesNaiveComputation) {
  SplitMix64 rng(11);
  std::vector<double> values;
  RunningStats s;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.next_double(-10, 10);
    values.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());

  EXPECT_NEAR(s.mean(), mean, 1e-9);
}

TEST(RunningStats, SumAndExtrema) {
  RunningStats s;
  s.add(1);
  s.add(-5);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(RunningStats, Reset) {
  RunningStats s;
  s.add(3);
  s.reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace sdpm
