// LoopNest: trip counts, flat-iteration decoding, validation.
#include <gtest/gtest.h>

#include "ir/nest.h"
#include "util/error.h"

namespace sdpm::ir {
namespace {

LoopNest two_level_nest() {
  LoopNest nest;
  nest.name = "n";
  nest.loops = {Loop{"i", 2, 10, 2}, Loop{"j", 0, 3, 1}};
  Statement s;
  s.cycles = 10;
  nest.body.push_back(s);
  return nest;
}

TEST(Loop, TripCount) {
  EXPECT_EQ((Loop{"i", 0, 10, 1}).trip_count(), 10);
  EXPECT_EQ((Loop{"i", 2, 10, 2}).trip_count(), 4);
  EXPECT_EQ((Loop{"i", 0, 10, 3}).trip_count(), 4);
  EXPECT_EQ((Loop{"i", 5, 5, 1}).trip_count(), 0);
}

TEST(Loop, ValueAt) {
  const Loop loop{"i", 2, 10, 2};
  EXPECT_EQ(loop.value_at(0), 2);
  EXPECT_EQ(loop.value_at(3), 8);
}

TEST(LoopNest, IterationCount) {
  EXPECT_EQ(two_level_nest().iteration_count(), 12);
}

TEST(LoopNest, CyclesPerIteration) {
  LoopNest nest = two_level_nest();
  nest.loop_overhead_cycles = 2;
  Statement s2;
  s2.cycles = 5;
  nest.body.push_back(s2);
  EXPECT_DOUBLE_EQ(nest.cycles_per_iteration(), 17.0);
  EXPECT_DOUBLE_EQ(nest.total_cycles(), 17.0 * 12);
}

TEST(LoopNest, IterationAtDecodesRowMajor) {
  const LoopNest nest = two_level_nest();
  // flat 0 -> (i=2, j=0); flat 1 -> (i=2, j=1); flat 3 -> (i=4, j=0)
  EXPECT_EQ(nest.iteration_at(0), (std::vector<std::int64_t>{2, 0}));
  EXPECT_EQ(nest.iteration_at(1), (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(nest.iteration_at(3), (std::vector<std::int64_t>{4, 0}));
  EXPECT_EQ(nest.iteration_at(11), (std::vector<std::int64_t>{8, 2}));
}

TEST(LoopNest, LoopNames) {
  EXPECT_EQ(two_level_nest().loop_names(),
            (std::vector<std::string>{"i", "j"}));
}

TEST(LoopNest, ValidateRejectsEmptyLoop) {
  LoopNest nest = two_level_nest();
  nest.loops[0].upper = nest.loops[0].lower;
  EXPECT_THROW(nest.validate({}), Error);
}

TEST(LoopNest, ValidateRejectsUnknownArray) {
  LoopNest nest = two_level_nest();
  ArrayRef ref;
  ref.array = 3;  // no arrays exist
  ref.subscripts = {affine_var(0, 2)};
  nest.body[0].refs.push_back(ref);
  EXPECT_THROW(nest.validate({}), Error);
}

TEST(LoopNest, ValidateRejectsRankMismatch) {
  LoopNest nest = two_level_nest();
  Array a;
  a.name = "U";
  a.extents = {8, 8};
  ArrayRef ref;
  ref.array = 0;
  ref.subscripts = {affine_var(0, 2)};  // 1 subscript for rank-2 array
  nest.body[0].refs.push_back(ref);
  const Array arrays[] = {a};
  EXPECT_THROW(nest.validate(arrays), Error);
}

TEST(AccessKind, Names) {
  EXPECT_STREQ(to_string(AccessKind::kRead), "read");
  EXPECT_STREQ(to_string(AccessKind::kWrite), "write");
}

}  // namespace
}  // namespace sdpm::ir
