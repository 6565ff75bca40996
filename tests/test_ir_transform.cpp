// Mechanical loop transformations: semantics preservation.
//
// The key property: tiling and fission must preserve the multiset of
// element accesses a nest performs (order may change).  We verify by
// brute-force enumeration of every iteration.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "ir/builder.h"
#include "ir/transform.h"
#include "util/error.h"

namespace sdpm::ir {
namespace {

using Access = std::tuple<ArrayId, std::int64_t, AccessKind>;

std::vector<Access> enumerate_accesses(const Program& program,
                                       const LoopNest& nest) {
  std::vector<Access> out;
  for (std::int64_t flat = 0; flat < nest.iteration_count(); ++flat) {
    const std::vector<std::int64_t> iters = nest.iteration_at(flat);
    for (const Statement& stmt : nest.body) {
      for (const ArrayRef& ref : stmt.refs) {
        std::vector<std::int64_t> index;
        index.reserve(ref.subscripts.size());
        for (const AffineExpr& sub : ref.subscripts) {
          index.push_back(sub.eval(iters));
        }
        out.emplace_back(ref.array,
                         program.array(ref.array).linear_index(index),
                         ref.kind);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Program make_test_program() {
  ProgramBuilder pb("t");
  const ArrayId u = pb.array("U", {12, 8});
  const ArrayId v = pb.array("V", {12, 8});
  const ArrayId w = pb.array("W", {8, 16});
  pb.nest("n")
      .loop("i", 0, 12)
      .loop("j", 0, 8)
      .stmt(3.0)
      .read(u, {sym("i"), sym("j")})
      .write(v, {sym("i"), sym("j")})
      .stmt(2.0)
      .read(w, {sym("j"), sym("i") + 4})  // transposed, shifted access
      .done();
  return pb.build();
}

Program make_simple_program() {
  ProgramBuilder pb("t");
  const ArrayId u = pb.array("U", {12, 8});
  const ArrayId v = pb.array("V", {8, 12});
  pb.nest("n")
      .loop("i", 0, 12)
      .loop("j", 0, 8)
      .stmt(3.0)
      .read(u, {sym("i"), sym("j")})
      .write(v, {sym("j"), sym("i")})  // transposed access
      .done();
  return pb.build();
}

TEST(Tile, PreservesAccesses) {
  const Program p = make_simple_program();
  const LoopNest tiled = tile(p.nests[0], {4, 2});
  EXPECT_EQ(tiled.depth(), 4);
  EXPECT_EQ(tiled.iteration_count(), p.nests[0].iteration_count());
  EXPECT_EQ(enumerate_accesses(p, tiled),
            enumerate_accesses(p, p.nests[0]));
}

TEST(Tile, TileIteratorsAreOuter) {
  const Program p = make_simple_program();
  const LoopNest tiled = tile(p.nests[0], {4, 2});
  EXPECT_EQ(tiled.loops[0].var, "ii");
  EXPECT_EQ(tiled.loops[1].var, "jj");
  EXPECT_EQ(tiled.loops[0].trip_count(), 3);
  EXPECT_EQ(tiled.loops[1].trip_count(), 4);
  EXPECT_EQ(tiled.loops[2].trip_count(), 4);
  EXPECT_EQ(tiled.loops[3].trip_count(), 2);
}

TEST(Tile, InnerPairWithOuterTimeLoop) {
  ProgramBuilder pb("t");
  const ArrayId u = pb.array("U", {12, 8});
  pb.nest("n")
      .loop("t", 0, 3)
      .loop("i", 0, 12)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(u, {sym("i"), sym("j")})
      .done();
  const Program p = pb.build();
  const LoopNest tiled = tile(p.nests[0], {4, 4}, /*first_loop=*/1);
  EXPECT_EQ(tiled.depth(), 5);
  EXPECT_EQ(tiled.loops[0].var, "t");
  EXPECT_EQ(enumerate_accesses(p, tiled),
            enumerate_accesses(p, p.nests[0]));
}

TEST(Tile, RejectsNonDividingSizes) {
  const Program p = make_simple_program();
  EXPECT_THROW(tile(p.nests[0], {5, 2}), Error);
}

TEST(Fission, SplitsStatementsIntoLoops) {
  const Program p = make_test_program();
  const std::vector<LoopNest> parts = fission(p.nests[0], {{0}, {1}});
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].body.size(), 1u);
  EXPECT_EQ(parts[1].body.size(), 1u);
  EXPECT_EQ(parts[0].loops.size(), p.nests[0].loops.size());

  // Union of accesses equals original.
  std::vector<Access> combined = enumerate_accesses(p, parts[0]);
  const std::vector<Access> second = enumerate_accesses(p, parts[1]);
  combined.insert(combined.end(), second.begin(), second.end());
  std::sort(combined.begin(), combined.end());
  EXPECT_EQ(combined, enumerate_accesses(p, p.nests[0]));
}

TEST(Fission, PreservesStatementCosts) {
  const Program p = make_test_program();
  const std::vector<LoopNest> parts = fission(p.nests[0], {{0}, {1}});
  EXPECT_DOUBLE_EQ(parts[0].cycles_per_iteration() +
                       parts[1].cycles_per_iteration(),
                   p.nests[0].cycles_per_iteration());
}

TEST(Fission, RejectsNonPartition) {
  const Program p = make_test_program();
  EXPECT_THROW(fission(p.nests[0], {{0}}), Error);          // missing stmt
  EXPECT_THROW(fission(p.nests[0], {{0, 1}, {1}}), Error);  // duplicated
  EXPECT_THROW(fission(p.nests[0], {{0}, {2}}), Error);     // out of range
}

}  // namespace
}  // namespace sdpm::ir
