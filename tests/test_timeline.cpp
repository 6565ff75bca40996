// Timeline, IterationSpace, CycleNoise, StallAwareTimeline and the
// forward cursors over them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "trace/stall_aware.h"
#include "trace/timeline.h"
#include "util/error.h"
#include "util/rng.h"

namespace sdpm::trace {
namespace {

using ir::ProgramBuilder;
using ir::sym;

ir::Program two_nest_program() {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {100});
  pb.nest("n1").loop("i", 0, 100).stmt(750.0).read(u, {sym("i")}).done();
  pb.nest("n2").loop("i", 0, 50).stmt(1500.0).read(u, {sym("i")}).done();
  return pb.build();
}

TEST(IterationSpace, GlobalCoordinates) {
  const ir::Program p = two_nest_program();
  const IterationSpace space(p);
  EXPECT_EQ(space.total(), 150);
  EXPECT_EQ(space.nest_begin(0), 0);
  EXPECT_EQ(space.nest_end(0), 100);
  EXPECT_EQ(space.nest_begin(1), 100);
  EXPECT_EQ(space.nest_end(1), 150);
  EXPECT_EQ(space.global_of({1, 10}), 110);
}

TEST(IterationSpace, PointOfRoundTrips) {
  const ir::Program p = two_nest_program();
  const IterationSpace space(p);
  for (std::int64_t g = 0; g < space.total(); ++g) {
    EXPECT_EQ(space.global_of(space.point_of(g)), g);
  }
  // End sentinel maps to the end of the last nest.
  const ir::IterationPoint end = space.point_of(space.total());
  EXPECT_EQ(end.nest_index, 1);
  EXPECT_EQ(end.flat_iteration, 50);
}

TEST(Timeline, PerIterationAtClockRate) {
  const ir::Program p = two_nest_program();
  const Timeline tl(p, 750e6);
  // 750 cycles at 750 MHz = 1 microsecond.
  EXPECT_NEAR(tl.per_iteration_ms(0), 0.001, 1e-12);
  EXPECT_NEAR(tl.per_iteration_ms(1), 0.002, 1e-12);
  EXPECT_NEAR(tl.total(), 100 * 0.001 + 50 * 0.002, 1e-9);
}

TEST(Timeline, AtIsMonotone) {
  const ir::Program p = two_nest_program();
  const Timeline tl(p, 750e6);
  TimeMs prev = -1;
  for (std::int64_t g = 0; g <= tl.space().total(); ++g) {
    const TimeMs t = tl.at_global(g);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Timeline, NestBoundariesLineUp) {
  const ir::Program p = two_nest_program();
  const Timeline tl(p, 750e6);
  EXPECT_NEAR(tl.nest_start(1), tl.at_global(100), 1e-12);
  EXPECT_NEAR(tl.at({1, 0}), tl.nest_start(1), 1e-12);
}

TEST(Timeline, MultipliersScalePerNest) {
  const ir::Program p = two_nest_program();
  const Timeline tl(p, {2.0, 0.5}, 750e6);
  EXPECT_NEAR(tl.per_iteration_ms(0), 0.002, 1e-12);
  EXPECT_NEAR(tl.per_iteration_ms(1), 0.001, 1e-12);
}

TEST(Timeline, NoiseIsDeterministic) {
  const ir::Program p = two_nest_program();
  const CycleNoise noise{0.2, 99};
  const Timeline a = Timeline::with_noise(p, noise);
  const Timeline b = Timeline::with_noise(p, noise);
  EXPECT_EQ(a.multipliers(), b.multipliers());
  EXPECT_NE(a.multipliers()[0], 1.0);
}

TEST(Timeline, ZeroSigmaMeansNominal) {
  const ir::Program p = two_nest_program();
  const Timeline tl = Timeline::with_noise(p, CycleNoise::none());
  EXPECT_EQ(tl.multipliers(), (std::vector<double>{1.0, 1.0}));
}

TEST(Timeline, DifferentSeedsDiffer) {
  const ir::Program p = two_nest_program();
  const Timeline a = Timeline::with_noise(p, CycleNoise{0.2, 1});
  const Timeline b = Timeline::with_noise(p, CycleNoise{0.2, 2});
  EXPECT_NE(a.multipliers(), b.multipliers());
}

TEST(StallAware, AddsStallsAtIterations) {
  const ir::Program p = two_nest_program();
  Timeline compute(p, 750e6);
  // Requests at global iterations 10 and 20 with 5 ms and 7 ms responses.
  const StallAwareTimeline sa(compute, {10, 20}, std::vector<TimeMs>{5, 7});
  EXPECT_NEAR(sa.at_global(10), compute.at_global(10), 1e-12);
  EXPECT_NEAR(sa.at_global(11), compute.at_global(11) + 5, 1e-12);
  EXPECT_NEAR(sa.at_global(20), compute.at_global(20) + 5, 1e-12);
  EXPECT_NEAR(sa.at_global(21), compute.at_global(21) + 12, 1e-12);
  EXPECT_NEAR(sa.total_stall_ms(), 12, 1e-12);
}

TEST(StallAware, FlatAverageConstructor) {
  const ir::Program p = two_nest_program();
  Timeline compute(p, 750e6);
  const StallAwareTimeline sa(compute, {5, 10, 15}, 2.0);
  EXPECT_NEAR(sa.at_global(16) - compute.at_global(16), 6.0, 1e-12);
}

TEST(StallAware, MonotoneLikeAnyTimeEstimate) {
  const ir::Program p = two_nest_program();
  Timeline compute(p, 750e6);
  const StallAwareTimeline sa(compute, {3, 3, 80}, 4.0);
  TimeMs prev = -1;
  for (std::int64_t g = 0; g <= sa.total_iterations(); ++g) {
    const TimeMs t = sa.at_global(g);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(StallAware, RejectsUnsortedOrMismatched) {
  const ir::Program p = two_nest_program();
  Timeline compute(p, 750e6);
  EXPECT_THROW(StallAwareTimeline(compute, {5, 3},
                                  std::vector<TimeMs>{1, 1}),
               Error);
  EXPECT_THROW(StallAwareTimeline(compute, {1, 2},
                                  std::vector<TimeMs>{1}),
               Error);
}

// ---- forward cursors ------------------------------------------------------

/// A program of up to 12 nests with random trip counts, a quarter of them
/// empty, and random per-iteration cycles.  Built without validation, which
/// rejects empty nests.
ir::Program random_program(SplitMix64& rng) {
  ir::Program p;
  p.name = "random";
  const int nests = 1 + static_cast<int>(rng.next_below(12));
  for (int n = 0; n < nests; ++n) {
    ir::LoopNest nest;
    nest.name = std::string("n").append(std::to_string(n));
    const auto trips = rng.next_below(4) == 0
                           ? std::int64_t{0}
                           : 1 + static_cast<std::int64_t>(rng.next_below(60));
    nest.loops.push_back(ir::Loop{"i", 0, trips, 1});
    nest.body.push_back(
        ir::Statement{"s", {}, 100.0 + rng.next_double() * 1e6});
    p.nests.push_back(nest);
  }
  return p;
}

/// Programs on which the closed-form guess of latest_start misses: up to 6
/// nests, each either 10^5 to 3·10^6 iterations of a statement that takes
/// a fraction of a cycle (t(g) then stays flat over runs of g, the more so
/// after a 1e12 ms stall), up to 10^6 iterations that take no time at
/// all, empty, or as in random_program.
ir::Program stress_program(SplitMix64& rng) {
  ir::Program p;
  p.name = "stress";
  const int nests = 1 + static_cast<int>(rng.next_below(6));
  for (int n = 0; n < nests; ++n) {
    std::int64_t trips = 0;
    double cycles = 0.0;
    switch (rng.next_below(4)) {
      case 0:
        trips = 100'000 + static_cast<std::int64_t>(rng.next_below(2'900'001));
        cycles = rng.next_double() * 0.5;
        break;
      case 1:
        trips = 1 + static_cast<std::int64_t>(rng.next_below(1'000'000));
        break;
      case 2:
        break;
      default:
        trips = 1 + static_cast<std::int64_t>(rng.next_below(60));
        cycles = 100.0 + rng.next_double() * 1e6;
        break;
    }
    ir::LoopNest nest;
    nest.name = std::string("n").append(std::to_string(n));
    nest.loops.push_back(ir::Loop{"i", 0, trips, 1});
    nest.body.push_back(ir::Statement{"s", {}, cycles});
    p.nests.push_back(nest);
  }
  return p;
}

/// A measured timeline over `p`: noisy compute plus up to 60 requests,
/// often at repeated iterations (all at one with `one_iteration`), each
/// stalling 0, a few ms or 1e12 ms.
StallAwareTimeline random_timeline(const ir::Program& p, SplitMix64& rng,
                                   bool one_iteration = false) {
  Timeline compute = Timeline::with_noise(p, CycleNoise{0.3, rng.next_u64()});
  const std::int64_t total = compute.total_iterations();
  std::vector<std::int64_t> iters;
  std::vector<TimeMs> responses;
  const std::uint64_t requests = total == 0 ? 0 : rng.next_below(61);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const bool repeat =
        !iters.empty() && (one_iteration || rng.next_below(3) == 0);
    iters.push_back(repeat ? iters.back()
                           : static_cast<std::int64_t>(rng.next_below(
                                 static_cast<std::uint64_t>(total))));
    const std::uint64_t kind = rng.next_below(4);
    responses.push_back(kind == 0   ? 0.0
                        : kind == 1 ? 1e12
                                    : rng.next_double() * 20.0);
  }
  std::sort(iters.begin(), iters.end());
  return StallAwareTimeline(std::move(compute), std::move(iters), responses);
}

std::uint64_t bits(TimeMs t) { return std::bit_cast<std::uint64_t>(t); }

/// Reference pre-activation search: a bisection over [lo, hi] that reads
/// every probe through at_global.
std::int64_t reference_latest_start(const StallAwareTimeline& est,
                                    std::int64_t lo, std::int64_t hi,
                                    TimeMs lead_ms) {
  const TimeMs deadline = est.at_global(hi);
  if (deadline - est.at_global(lo) < lead_ms) return lo;
  std::int64_t a = lo;
  std::int64_t b = hi;
  while (b - a > 1) {
    const std::int64_t mid = a + (b - a) / 2;
    if (deadline - est.at_global(mid) >= lead_ms) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return a;
}

TEST(TimelineCursor, EqualsAtGlobalBitForBit) {
  SplitMix64 rng(0x71e11e);
  for (int trial = 0; trial < 300; ++trial) {
    const ir::Program p = random_program(rng);
    const StallAwareTimeline sa = random_timeline(p, rng);
    const std::int64_t total = sa.total_iterations();
    // Every g from 0 to total (so every nest boundary), each read twice.
    StallAwareTimeline::Cursor cursor(sa);
    Timeline::Cursor compute(sa.compute());
    for (std::int64_t g = 0; g <= total; ++g) {
      for (int again = 0; again < 2; ++again) {
        ASSERT_EQ(bits(cursor.at(g)), bits(sa.at_global(g)))
            << "trial " << trial << " g " << g;
        ASSERT_EQ(cursor.position(), g);
        ASSERT_EQ(bits(cursor.time()), bits(sa.at_global(g)));
        ASSERT_EQ(bits(compute.at(g)), bits(sa.compute().at_global(g)))
            << "trial " << trial << " g " << g;
        ASSERT_EQ(compute.nest(), sa.compute().space().point_of(g).nest_index);
      }
    }
    // Strides and jumps back, which restart the walk.
    for (int read = 0; read < 50; ++read) {
      const auto g = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total) + 1));
      ASSERT_EQ(bits(cursor.at(g)), bits(sa.at_global(g)))
          << "trial " << trial << " random g " << g;
    }
  }
}

TEST(TimelineCursor, RejectsIterationsOutsideTheProgram) {
  const ir::Program p = two_nest_program();
  const StallAwareTimeline sa(Timeline(p, 750e6), {3}, 1.0);
  StallAwareTimeline::Cursor cursor(sa);
  EXPECT_THROW(cursor.at(-1), Error);
  EXPECT_THROW(cursor.at(sa.total_iterations() + 1), Error);
}

TEST(TimelineCursor, NoRequestsIsTheComputeTimeline) {
  const ir::Program p = two_nest_program();
  const Timeline compute(p, 750e6);
  const StallAwareTimeline nominal(compute);
  StallAwareTimeline::Cursor cursor(nominal);
  for (std::int64_t g = 0; g <= compute.total_iterations(); ++g) {
    EXPECT_EQ(bits(cursor.at(g)), bits(compute.at_global(g)));
  }
  EXPECT_EQ(nominal.total_stall_ms(), 0.0);
}

TEST(TimelineCursor, LatestStartMatchesTheSearchOverAtGlobal) {
  SplitMix64 rng(0x1ead);
  // The first 300 programs have at most 60 iterations per nest and at
  // least 100 cycles per statement, so the closed-form guess holds; the
  // next 300 are stress programs, every other one with all its requests
  // at one iteration.
  for (int trial = 0; trial < 600; ++trial) {
    const bool stress = trial >= 300;
    const ir::Program p = stress ? stress_program(rng) : random_program(rng);
    const StallAwareTimeline sa =
        random_timeline(p, rng, stress && trial % 2 == 0);
    const std::int64_t total = sa.total_iterations();
    if (total == 0) continue;
    // Increasing disjoint gaps, read the way the scheduler reads a disk's
    // gaps: one cursor at each end, both only moving forward.
    StallAwareTimeline::Cursor from(sa);
    StallAwareTimeline::Cursor to(sa);
    std::int64_t lo = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total)));
    while (lo < total) {
      const std::int64_t hi =
          rng.next_below(3) == 0
              ? lo + 1
              : lo + 1 +
                    static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(total - lo)));
      const TimeMs span = to.at(hi) - from.at(lo);
      // A lead equal to the remaining time at the gap's middle sits on
      // the boundary of the condition.
      const TimeMs exact =
          sa.at_global(hi) - sa.at_global(lo + (hi - lo) / 2);
      for (const TimeMs lead : {-1.0, 0.0, span * rng.next_double(), exact,
                                span, span + 1.0, 1e300}) {
        ASSERT_EQ(sa.latest_start(from, to, lead),
                  reference_latest_start(sa, lo, hi, lead))
            << "trial " << trial << " gap [" << lo << ", " << hi
            << ") lead " << lead;
      }
      lo = hi + static_cast<std::int64_t>(rng.next_below(4));
    }
  }
}

TEST(TimelineCursor, LatestStartRejectsForeignOrCrossedCursors) {
  const ir::Program p = two_nest_program();
  const StallAwareTimeline sa(Timeline(p, 750e6), {3}, 1.0);
  const StallAwareTimeline other(Timeline(p, 750e6), {3}, 1.0);
  StallAwareTimeline::Cursor from(sa);
  StallAwareTimeline::Cursor to(sa);
  StallAwareTimeline::Cursor foreign(other);
  from.at(20);
  to.at(10);
  foreign.at(40);
  EXPECT_THROW(sa.latest_start(from, to, 0.0), Error);
  EXPECT_THROW(sa.latest_start(to, foreign, 0.0), Error);
}

}  // namespace
}  // namespace sdpm::trace
