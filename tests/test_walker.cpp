// Access walker: the closed-form block enumeration must agree exactly
// (events and order) with a brute-force per-element walk.
#include <gtest/gtest.h>

#include <vector>

#include "ir/builder.h"
#include "trace/walker.h"
#include "util/error.h"
#include "util/rng.h"

namespace sdpm::trace {
namespace {

using ir::ArrayId;
using ir::ProgramBuilder;
using ir::sym;

struct Event {
  int nest;
  std::int64_t flat;
  ArrayId array;
  std::int64_t block;
  int statement;

  friend bool operator==(const Event&, const Event&) = default;
};

std::vector<Event> run_walker(const ir::Program& program, Bytes block_size) {
  std::vector<Event> events;
  TouchCursor cursor(program, [block_size](ArrayId) { return block_size; });
  BlockTouch t;
  while (cursor.next(t)) {
    events.push_back(Event{t.nest, t.flat_iter, t.array, t.block,
                           t.statement});
  }
  return events;
}

std::vector<Event> brute_force(const ir::Program& program, Bytes block_size) {
  std::vector<Event> events;
  for (int n = 0; n < static_cast<int>(program.nests.size()); ++n) {
    const ir::LoopNest& nest = program.nests[static_cast<std::size_t>(n)];
    const std::int64_t inner_trips = nest.loops.back().trip_count();
    const std::int64_t outer_total = nest.iteration_count() / inner_trips;
    for (std::int64_t o = 0; o < outer_total; ++o) {
      // Track each ref's previous block within this inner sweep.
      std::vector<std::vector<std::int64_t>> prev(nest.body.size());
      for (std::size_t si = 0; si < nest.body.size(); ++si) {
        prev[si].assign(nest.body[si].refs.size(), -1);
      }
      for (std::int64_t t = 0; t < inner_trips; ++t) {
        const std::int64_t flat = o * inner_trips + t;
        const std::vector<std::int64_t> iters = nest.iteration_at(flat);
        for (int si = 0; si < static_cast<int>(nest.body.size()); ++si) {
          const ir::Statement& stmt =
              nest.body[static_cast<std::size_t>(si)];
          for (int ri = 0; ri < static_cast<int>(stmt.refs.size()); ++ri) {
            const ir::ArrayRef& ref =
                stmt.refs[static_cast<std::size_t>(ri)];
            std::vector<std::int64_t> index;
            for (const ir::AffineExpr& sub : ref.subscripts) {
              index.push_back(sub.eval(iters));
            }
            const Bytes off =
                program.array(ref.array).byte_offset(index);
            const std::int64_t block = off / block_size;
            auto& p = prev[static_cast<std::size_t>(si)]
                          [static_cast<std::size_t>(ri)];
            if (block != p) {
              events.push_back(Event{n, flat, ref.array, block, si});
              p = block;
            }
          }
        }
      }
    }
  }
  return events;
}

TEST(Walker, ContiguousSweep) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64});  // 512 bytes
  pb.nest("n").loop("i", 0, 64).stmt(1.0).read(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  const auto events = run_walker(p, 128);
  ASSERT_EQ(events.size(), 4u);  // 512 / 128 blocks
  EXPECT_EQ(events[0].flat, 0);
  EXPECT_EQ(events[1].flat, 16);
  EXPECT_EQ(events[3].block, 3);
}

TEST(Walker, ConstantSubscriptTouchesOnce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64});
  pb.nest("n")
      .loop("i", 0, 100)
      .stmt(1.0)
      .read(u, {ir::sym_const(5)})
      .done();
  const ir::Program p = pb.build();
  const auto events = run_walker(p, 128);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].flat, 0);
}

TEST(Walker, TwoDimensionalRowMajor) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {8, 16});  // 8 rows x 128 bytes
  pb.nest("n")
      .loop("i", 0, 8)
      .loop("j", 0, 16)
      .stmt(1.0)
      .read(u, {sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();
  const auto events = run_walker(p, 256);  // 2 rows per block
  EXPECT_EQ(events.size(), brute_force(p, 256).size());
  EXPECT_EQ(events, brute_force(p, 256));
}

TEST(Walker, TransposedAccessMatchesBruteForce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {16, 16});
  pb.nest("n")
      .loop("i", 0, 16)
      .loop("j", 0, 16)
      .stmt(1.0)
      .read(u, {sym("j"), sym("i")})  // column access of row-major
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 256), brute_force(p, 256));
}

TEST(Walker, NegativeStrideMatchesBruteForce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64});
  pb.nest("n")
      .loop("i", 0, 64)
      .stmt(1.0)
      .read(u, {(-1) * sym("i") + 63})  // reverse sweep
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 128), brute_force(p, 128));
}

TEST(Walker, MultiStatementOrderPreserved) {
  ProgramBuilder pb("p");
  const ArrayId a = pb.array("A", {32});
  const ArrayId b = pb.array("B", {32});
  pb.nest("n")
      .loop("i", 0, 32)
      .stmt(1.0)
      .read(a, {sym("i")})
      .stmt(1.0)
      .read(b, {sym("i")})
      .done();
  const ir::Program p = pb.build();
  const auto events = run_walker(p, 64);
  // At flat 0 both refs enter block 0: statement order must be preserved.
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].statement, 0);
  EXPECT_EQ(events[1].statement, 1);
  EXPECT_EQ(events, brute_force(p, 64));
}

TEST(Walker, OutOfBoundsReferenceThrows) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {16});
  pb.nest("n").loop("i", 0, 17).stmt(1.0).read(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  EXPECT_THROW(run_walker(p, 64), Error);
}

TEST(Walker, BlockSizeMustBeMultipleOfElement) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {16});
  pb.nest("n").loop("i", 0, 16).stmt(1.0).read(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  EXPECT_THROW(run_walker(p, 12), Error);
}

TEST(Walker, PerArrayBlockSizes) {
  ProgramBuilder pb("p");
  const ArrayId a = pb.array("A", {32});
  const ArrayId b = pb.array("B", {32});
  pb.nest("n")
      .loop("i", 0, 32)
      .stmt(1.0)
      .read(a, {sym("i")})
      .read(b, {sym("i")})
      .done();
  const ir::Program p = pb.build();
  int a_events = 0, b_events = 0;
  TouchCursor cursor(
      p, [](ArrayId arr) { return arr == 0 ? Bytes{64} : Bytes{128}; });
  BlockTouch t;
  while (cursor.next(t)) (t.array == 0 ? a_events : b_events)++;
  EXPECT_EQ(a_events, 4);  // 256B / 64B
  EXPECT_EQ(b_events, 2);  // 256B / 128B
}

TEST(Walker, RepeatSweepsNeedACapacityToBeSkipped) {
  // Four identical sweeps of U.  Without a cache capacity the cursor yields
  // every touch; given one that holds U, it skips the three repeats.
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64});  // 4 blocks of 128 bytes
  pb.nest("n")
      .loop("t", 0, 4)
      .loop("i", 0, 64)
      .stmt(1.0)
      .read(u, {sym("i")})
      .done();
  const ir::Program p = pb.build();
  const auto events = run_walker(p, 128);
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(events, brute_force(p, 128));

  TouchCursor cursor(p, [](ArrayId) { return Bytes{128}; }, 512);
  int touches = 0;
  BlockTouch t;
  while (cursor.next(t)) ++touches;
  EXPECT_EQ(touches, 4);
  EXPECT_EQ(cursor.sweeps_skipped(), 3);
}

TEST(Walker, SteppedLoopsMatchBruteForce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64, 64});
  pb.nest("n")
      .loop("i", 0, 64, 4)   // non-unit outer step
      .loop("j", 0, 64, 2)   // non-unit inner step
      .stmt(1.0)
      .read(u, {sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 256), brute_force(p, 256));
}

TEST(Walker, NonZeroLowerBoundsMatchBruteForce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64, 64});
  pb.nest("n")
      .loop("i", 8, 56)
      .loop("j", 16, 48)
      .stmt(1.0)
      .read(u, {sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 512), brute_force(p, 512));
}

TEST(Walker, ScaledSubscriptMatchesBruteForce) {
  // U[2i][j]: every other row -- the stride-2 case of the closed form.
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {64, 32});
  pb.nest("n")
      .loop("i", 0, 32)
      .loop("j", 0, 32)
      .stmt(1.0)
      .read(u, {2 * sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 256), brute_force(p, 256));
}

TEST(Walker, ThreeDeepNestMatchesBruteForce) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {8, 16, 32});
  pb.nest("n")
      .loop("i", 0, 8)
      .loop("j", 0, 16)
      .loop("k", 0, 32)
      .stmt(1.0)
      .read(u, {sym("i"), sym("j"), sym("k")})
      .done();
  const ir::Program p = pb.build();
  EXPECT_EQ(run_walker(p, 512), brute_force(p, 512));
}

// Randomized differential test across layouts, strides and block sizes.
TEST(WalkerProperty, MatchesBruteForce) {
  SplitMix64 rng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    ProgramBuilder pb("p");
    const std::int64_t rows = 4 + static_cast<std::int64_t>(rng.next_below(12));
    const std::int64_t cols = rows;  // square so transposed refs stay in range
    const auto layout = rng.next_below(2) == 0
                            ? ir::StorageLayout::kRowMajor
                            : ir::StorageLayout::kColMajor;
    const ArrayId u = pb.array("U", {rows, cols}, 8, layout);
    const ArrayId v = pb.array("V", {rows * cols}, 8);
    auto nb = pb.nest("n");
    nb.loop("i", 0, rows).loop("j", 0, cols);
    nb.stmt(1.0);
    if (rng.next_below(2) == 0) {
      nb.read(u, {sym("i"), sym("j")});
    } else {
      nb.read(u, {sym("j"), sym("i")});
    }
    nb.read(v, {static_cast<std::int64_t>(1 + rng.next_below(2)) * sym("j")});
    nb.done();
    ir::Program p = pb.build();
    // Clamp the scaled V subscript into range by construction: max value is
    // 2*(cols-1) < rows*cols for the sizes above.
    const Bytes block = 8 * (1 + static_cast<Bytes>(rng.next_below(16)));
    ASSERT_EQ(run_walker(p, block), brute_force(p, block)) << "trial "
                                                           << trial;
  }
}

}  // namespace
}  // namespace sdpm::trace
