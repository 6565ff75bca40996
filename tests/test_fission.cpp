// Loop fission (Fig. 11): array grouping, disk allocation, consolidation.
#include <gtest/gtest.h>

#include "core/fission.h"
#include "ir/builder.h"

namespace sdpm::core {
namespace {

using ir::ArrayId;
using ir::ProgramBuilder;
using ir::sym;

// The paper's Figure 9(a): three loop nests accessing ten arrays U1..U10.
// Expected groups: {U1,U2,U5}, {U3,U4,U8}, {U6,U7}, {U9,U10} — "U2 and U5
// belong to the same group, as they are coupled via array U1".
struct Figure9 {
  ir::Program program;
  std::array<ArrayId, 10> u{};

  Figure9() {
    ProgramBuilder pb("figure9");
    for (int k = 0; k < 10; ++k) {
      u[static_cast<std::size_t>(k)] =
          pb.array(std::string("U").append(std::to_string(k + 1)), {1024});
    }
    // nest1: s1 couples U1,U2; s2 couples U3,U4; s3 couples U6,U7.
    pb.nest("nest1")
        .loop("i", 0, 1024)
        .stmt(1.0)
        .read(u[0], {sym("i")})
        .write(u[1], {sym("i")})
        .stmt(1.0)
        .read(u[2], {sym("i")})
        .write(u[3], {sym("i")})
        .stmt(1.0)
        .read(u[5], {sym("i")})
        .write(u[6], {sym("i")})
        .done();
    // nest2: s1 couples U1,U5 (links U5 into group 1); s2 couples U9,U10.
    pb.nest("nest2")
        .loop("i", 0, 1024)
        .stmt(1.0)
        .read(u[0], {sym("i")})
        .write(u[4], {sym("i")})
        .stmt(1.0)
        .read(u[8], {sym("i")})
        .write(u[9], {sym("i")})
        .done();
    // nest3: s1 couples U3,U8 (links U8 into group 2).
    pb.nest("nest3")
        .loop("i", 0, 1024)
        .stmt(1.0)
        .read(u[2], {sym("i")})
        .write(u[7], {sym("i")})
        .stmt(1.0)
        .read(u[5], {sym("i")})
        .done();
    program = pb.build();
  }
};

TEST(ArrayGroups, PaperFigure9Groups) {
  const Figure9 fig;
  const auto groups = array_groups(fig.program);
  ASSERT_EQ(groups.size(), 4u);
  // Group membership by array id (U1=0, ...): order within group is by id.
  EXPECT_EQ(groups[0], (std::vector<ArrayId>{0, 1, 4}));  // U1,U2,U5
  EXPECT_EQ(groups[1], (std::vector<ArrayId>{2, 3, 7}));  // U3,U4,U8
  EXPECT_EQ(groups[2], (std::vector<ArrayId>{5, 6}));     // U6,U7
  EXPECT_EQ(groups[3], (std::vector<ArrayId>{8, 9}));     // U9,U10
}

TEST(ArrayGroups, UnaccessedArraysExcluded) {
  ProgramBuilder pb("p");
  pb.array("DEAD", {8});
  const ArrayId live = pb.array("LIVE", {8});
  pb.nest("n").loop("i", 0, 8).stmt(1.0).read(live, {sym("i")}).done();
  const auto groups = array_groups(pb.build());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<ArrayId>{live}));
}

TEST(Fission, Figure9ProducesGroupedLoops) {
  const Figure9 fig;
  FissionOptions options;
  options.total_disks = 8;
  const FissionResult result = apply_loop_fission(fig.program, options);
  EXPECT_TRUE(result.any_fissioned);
  // nest1 splits in 3, nest2 in 2, nest3 in 2 -> 7 loops.
  EXPECT_EQ(result.program.nests.size(), 7u);
  ASSERT_EQ(result.groups.size(), 4u);
}

TEST(Fission, ConsolidatesLoopsPerGroup) {
  // Figure 9(b): the transformed code runs group 1's loops first, then
  // group 2's, etc.
  const Figure9 fig;
  const FissionResult result = apply_loop_fission(fig.program, {});
  // Map each emitted nest to the array group of its first reference.
  const auto groups = array_groups(fig.program);
  std::vector<int> group_of_array(fig.program.arrays.size(), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (ArrayId a : groups[g]) {
      group_of_array[static_cast<std::size_t>(a)] = static_cast<int>(g);
    }
  }
  std::vector<int> nest_groups;
  for (const ir::LoopNest& nest : result.program.nests) {
    nest_groups.push_back(group_of_array[static_cast<std::size_t>(
        nest.body[0].refs[0].array)]);
  }
  // Group ids must be non-decreasing across the program.
  for (std::size_t i = 1; i < nest_groups.size(); ++i) {
    EXPECT_LE(nest_groups[i - 1], nest_groups[i]);
  }
}

TEST(Fission, DiskAllocationDisjointAndComplete) {
  const Figure9 fig;
  FissionOptions options;
  options.total_disks = 8;
  const FissionResult result = apply_loop_fission(fig.program, options);
  std::vector<bool> used(8, false);
  int total = 0;
  for (const ArrayGroup& g : result.groups) {
    EXPECT_GE(g.disk_count, 1);
    for (int d = g.first_disk; d < g.first_disk + g.disk_count; ++d) {
      EXPECT_FALSE(used[static_cast<std::size_t>(d)]);
      used[static_cast<std::size_t>(d)] = true;
    }
    total += g.disk_count;
  }
  EXPECT_EQ(total, 8);
}

TEST(Fission, AllocationProportionalToGroupBytes) {
  ProgramBuilder pb("p");
  const ArrayId big = pb.array("BIG", {6 * 8192});    // 6 units
  const ArrayId small = pb.array("SMALL", {1 * 8192});  // 1 unit
  pb.nest("n")
      .loop("i", 0, 8192)
      .stmt(1.0)
      .read(big, {sym("i")})
      .stmt(1.0)
      .read(small, {sym("i")})
      .done();
  FissionOptions options;
  options.total_disks = 7;
  const FissionResult result = apply_loop_fission(pb.build(), options);
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0].disk_count, 6);
  EXPECT_EQ(result.groups[1].disk_count, 1);
}

TEST(Fission, StripingReflectsAllocation) {
  const Figure9 fig;
  FissionOptions options;
  options.total_disks = 8;
  const FissionResult result = apply_loop_fission(fig.program, options);
  for (const ArrayGroup& g : result.groups) {
    for (ArrayId a : g.arrays) {
      const layout::Striping& s =
          result.striping[static_cast<std::size_t>(a)];
      EXPECT_EQ(s.starting_disk, g.first_disk);
      EXPECT_EQ(s.stripe_factor, g.disk_count);
    }
  }
}

TEST(Fission, LayoutObliviousKeepsBaseStriping) {
  const Figure9 fig;
  FissionOptions options;
  options.layout_aware = false;
  const FissionResult result = apply_loop_fission(fig.program, options);
  EXPECT_TRUE(result.any_fissioned);
  for (const layout::Striping& s : result.striping) {
    EXPECT_EQ(s, options.base_striping);
  }
}

TEST(Fission, CoupledProgramIsNoOp) {
  // Every statement couples both arrays: nothing fissionable, and — per the
  // paper's wupwise/galgel observation — the striping stays untouched.
  ProgramBuilder pb("coupled");
  const ArrayId a = pb.array("A", {8192});
  const ArrayId b = pb.array("B", {8192});
  pb.nest("n")
      .loop("i", 0, 8192)
      .stmt(1.0)
      .read(a, {sym("i")})
      .write(b, {sym("i")})
      .done();
  const FissionResult result = apply_loop_fission(pb.build(), {});
  EXPECT_FALSE(result.any_fissioned);
  EXPECT_EQ(result.program.nests.size(), 1u);
  for (const layout::Striping& s : result.striping) {
    EXPECT_EQ(s, layout::Striping{});
  }
}

TEST(Fission, MoreGroupsThanDisksFallsBack) {
  ProgramBuilder pb2("many");
  std::vector<ArrayId> arrays2;
  for (int k = 0; k < 4; ++k) {
    arrays2.push_back(
        pb2.array(std::string("A").append(std::to_string(k)), {8192}));
  }
  auto nb2 = pb2.nest("n");
  nb2.loop("i", 0, 8192);
  for (int k = 0; k < 4; ++k) {
    nb2.stmt(1.0).read(arrays2[static_cast<std::size_t>(k)], {sym("i")});
  }
  nb2.done();
  FissionOptions options;
  options.total_disks = 2;  // fewer disks than groups
  const FissionResult result = apply_loop_fission(pb2.build(), options);
  EXPECT_TRUE(result.any_fissioned);
  for (const layout::Striping& s : result.striping) {
    EXPECT_EQ(s, options.base_striping);
  }
}

TEST(Fission, PreservesTotalCycles) {
  const Figure9 fig;
  const FissionResult result = apply_loop_fission(fig.program, {});
  EXPECT_DOUBLE_EQ(result.program.total_cycles(), fig.program.total_cycles());
}

}  // namespace
}  // namespace sdpm::core
