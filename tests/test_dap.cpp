// Disk Access Pattern extraction — including the paper's Figure 2 example.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/builder.h"
#include "layout/layout_table.h"
#include "trace/dap.h"
#include "util/error.h"

namespace sdpm::trace {
namespace {

using ir::ProgramBuilder;
using ir::sym;

// The paper's Figure 2(a)/(b): U1 of size 4S striped as (0,4,S), U2 of
// size 2S placed as (2,1,S); nest1 reads U1[1..2S] and U2[1..2S], nest2
// reads U1[2S+1..4S].  S here is one stripe of doubles.
struct Figure2 {
  static constexpr std::int64_t kS = 8192;  // doubles per 64 KB stripe

  ir::Program program;
  std::vector<layout::Striping> striping;

  Figure2() {
    ProgramBuilder pb("figure2");
    const auto u1 = pb.array("U1", {4 * kS});
    const auto u2 = pb.array("U2", {2 * kS});
    pb.nest("nest1")
        .loop("i", 0, 2 * kS)
        .stmt(10.0)
        .read(u1, {sym("i")})
        .read(u2, {sym("i")})
        .done();
    pb.nest("nest2")
        .loop("i", 0, 2 * kS)
        .stmt(10.0)
        .read(u1, {sym("i") + 2 * kS})
        .done();
    program = pb.build();
    striping = {layout::Striping{0, 4, kS * 8},
                layout::Striping{2, 1, kS * 8}};
  }
};

GeneratorOptions no_cache() {
  GeneratorOptions o;
  o.cache_bytes = 0;
  return o;
}

TEST(Dap, Figure2DiskActivity) {
  const Figure2 fig;
  const layout::LayoutTable table(fig.program, fig.striping, 4);
  const DiskAccessPattern dap =
      DiskAccessPattern::analyze(fig.program, table, no_cache());
  ASSERT_EQ(dap.disk_count(), 4);

  const std::int64_t s = Figure2::kS;
  // Figure 2(c): disk0 active during the first half of nest1, idle after.
  EXPECT_TRUE(dap.active_iterations(0).contains(0));
  EXPECT_FALSE(dap.active_iterations(0).contains(s));
  // disk1 becomes active at iteration S of nest1 (stripe 1 of U1).
  EXPECT_TRUE(dap.active_iterations(1).contains(s));
  EXPECT_FALSE(dap.active_iterations(1).contains(0));
  // disk2 holds all of U2: active from iteration 0 through nest1.
  EXPECT_TRUE(dap.active_iterations(2).contains(0));
  EXPECT_TRUE(dap.active_iterations(2).contains(s));
  // disk2 idle during nest2.
  EXPECT_TRUE(dap.idle_periods(2).contains(2 * s + 1));
  // disk3 idle through nest1, active during the second half of nest2
  // (stripe 3 of U1 holds elements [3S, 4S)).
  EXPECT_TRUE(dap.idle_periods(3).contains(0));
  EXPECT_TRUE(dap.active_iterations(3).contains(2 * s + s));
}

TEST(Dap, Figure2Transitions) {
  const Figure2 fig;
  const layout::LayoutTable table(fig.program, fig.striping, 4);
  const DiskAccessPattern dap =
      DiskAccessPattern::analyze(fig.program, table, no_cache());

  // disk3's pattern reads: idle from (nest1, 0), active at (nest2, S), ...
  const auto transitions = dap.transitions(3);
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_FALSE(transitions[0].active);
  EXPECT_EQ(transitions[0].point.nest_index, 0);
  EXPECT_EQ(transitions[0].point.flat_iteration, 0);
  EXPECT_TRUE(transitions[1].active);
  EXPECT_EQ(transitions[1].point.nest_index, 1);
}

TEST(Dap, NeverAccessedDisk) {
  const Figure2 fig;
  // Use 6 disks: disks 4 and 5 hold nothing.
  const layout::LayoutTable table(fig.program, fig.striping, 6);
  const DiskAccessPattern dap =
      DiskAccessPattern::analyze(fig.program, table, no_cache());
  EXPECT_TRUE(dap.never_accessed(4));
  EXPECT_TRUE(dap.never_accessed(5));
  const IntervalSet idle = dap.idle_periods(4);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_EQ(idle.total_length(), dap.space().total());
}

TEST(Dap, ActiveAndIdlePartitionIterationSpace) {
  const Figure2 fig;
  const layout::LayoutTable table(fig.program, fig.striping, 4);
  const DiskAccessPattern dap =
      DiskAccessPattern::analyze(fig.program, table, no_cache());
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(dap.active_iterations(d).total_length() +
                  dap.idle_periods(d).total_length(),
              dap.space().total());
    EXPECT_FALSE(dap.active_iterations(d).intersects(dap.idle_periods(d)));
  }
}

TEST(Dap, RejectsMissesOutOfProgramOrder) {
  const Figure2 fig;
  std::vector<MissRecord> misses(2);
  misses[0].global_iter = 10;
  misses[1].global_iter = 5;
  misses[1].disk = 1;
  try {
    const DiskAccessPattern dap(fig.program, 4, misses);
    ADD_FAILURE() << "accepted misses out of program order";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "misses must come in program order: iteration 5 after 10"),
              std::string::npos)
        << e.what();
  }
}

TEST(Dap, ToStringPaperFormat) {
  const Figure2 fig;
  const layout::LayoutTable table(fig.program, fig.striping, 4);
  const DiskAccessPattern dap =
      DiskAccessPattern::analyze(fig.program, table, no_cache());
  const std::string text = dap.to_string(fig.program);
  EXPECT_NE(text.find("disk0:"), std::string::npos);
  EXPECT_NE(text.find("active>"), std::string::npos);
  EXPECT_NE(text.find("idle>"), std::string::npos);
  EXPECT_NE(text.find("<Nest "), std::string::npos);
}

TEST(Dap, CacheReducesActivity) {
  const Figure2 fig;
  const layout::LayoutTable table(fig.program, fig.striping, 4);
  GeneratorOptions cached;
  cached.cache_bytes = mib(64);  // everything fits after first touch
  const DiskAccessPattern with_cache =
      DiskAccessPattern::analyze(fig.program, table, cached);
  const DiskAccessPattern without =
      DiskAccessPattern::analyze(fig.program, table, no_cache());
  for (int d = 0; d < 4; ++d) {
    EXPECT_LE(with_cache.active_iterations(d).total_length(),
              without.active_iterations(d).total_length());
  }
}

}  // namespace
}  // namespace sdpm::trace
