// Layout-aware loop tiling (Fig. 12): costly-nest selection, blocked
// reshape, tile-to-disk mapping, applicability rules.
#include <gtest/gtest.h>

#include "core/tiling.h"
#include "disk/parameters.h"
#include "ir/builder.h"
#include "layout/layout_table.h"
#include "trace/generator.h"

namespace sdpm::core {
namespace {

using ir::ArrayId;
using ir::ProgramBuilder;
using ir::StorageLayout;
using ir::sym;

// A program with a cheap sweep over a shared array and an expensive private
// nest over M1 (conforming) and M2 (column-major, i.e. non-conforming).
ir::Program tiling_program() {
  ProgramBuilder pb("tl");
  const ArrayId shared = pb.array("SH", {256, 256});
  const ArrayId m1 = pb.array("M1", {128, 256});
  const ArrayId m2 = pb.array("M2", {128, 256}, 8, StorageLayout::kColMajor);
  pb.nest("sweep")
      .loop("i", 0, 256)
      .loop("j", 0, 256)
      .stmt(10.0)
      .read(shared, {sym("i"), sym("j")})
      .done();
  pb.nest("mult")
      .loop("i", 0, 128)
      .loop("j", 0, 256)
      .stmt(100'000.0)  // by far the most disk-energy-costly nest
      .read(m1, {sym("i"), sym("j")})
      .read(m2, {sym("i"), sym("j")})
      .write(m1, {sym("i"), sym("j")})
      .done();
  return pb.build();
}

TilingOptions small_options() {
  TilingOptions o;
  o.total_disks = 4;
  o.base_striping = layout::Striping{0, 4, kib(64)};
  o.tile_bytes = kib(64);
  o.access.cache_bytes = 0;
  return o;
}

TEST(Tiling, SelectsCostliestNest) {
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  EXPECT_TRUE(result.applied);
  EXPECT_EQ(result.tiled_nest, 1);
}

TEST(Tiling, NestOverrideRespected) {
  const ir::Program p = tiling_program();
  TilingOptions o = small_options();
  o.nest_override = 0;
  const TilingResult result = apply_loop_tiling(p, o);
  EXPECT_EQ(result.tiled_nest, 0);
}

TEST(Tiling, BlockedReshapeOfPrivateArrays) {
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  // M1 and M2 are private to the costly nest: both reshaped.
  ASSERT_EQ(result.reshaped_arrays.size(), 2u);
  // M2's storage did not match the access order -> permutation required.
  ASSERT_EQ(result.permuted_arrays.size(), 1u);
  EXPECT_EQ(result.permuted_arrays[0], 2);
  // Reshaped arrays are 4-D blocked with the chosen tile in the tail dims.
  const ir::Array& m1 = result.program.arrays[1];
  ASSERT_EQ(m1.rank(), 4);
  EXPECT_EQ(m1.extents[2], result.tile_rows);
  EXPECT_EQ(m1.extents[3], result.tile_cols);
  EXPECT_EQ(m1.extents[0] * m1.extents[2], 128);
  EXPECT_EQ(m1.extents[1] * m1.extents[3], 256);
  // Element count is preserved by the reshape.
  EXPECT_EQ(m1.element_count(), 128 * 256);
}

TEST(Tiling, SharedArrayNotReshaped) {
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  EXPECT_EQ(result.program.arrays[0].rank(), 2);  // SH untouched
  EXPECT_EQ(result.striping[0], small_options().base_striping);
}

TEST(Tiling, TileToDiskStriping) {
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  const layout::Striping& s = result.striping[1];
  EXPECT_EQ(s.starting_disk, 0);
  EXPECT_EQ(s.stripe_factor, 4);
  // DS(i): the per-tile footprint.
  EXPECT_EQ(s.stripe_size, result.tile_rows * result.tile_cols * 8);
}

TEST(Tiling, TiledProgramValidatesAndKeepsIterations) {
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  result.program.validate();
  EXPECT_EQ(result.program.nests[1].iteration_count(),
            p.nests[1].iteration_count());
  EXPECT_EQ(result.program.nests[1].depth(), 4);
}

TEST(Tiling, CollocatedTilesLandOnSameDisk) {
  // After the reshape, tile k of M1 and tile k of M2 map to the same disk.
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  const layout::LayoutTable table(result.program, result.striping, 4);
  const Bytes tile_bytes = result.tile_rows * result.tile_cols * 8;
  const std::int64_t tiles =
      (128 / result.tile_rows) * (256 / result.tile_cols);
  for (std::int64_t k = 0; k < tiles; ++k) {
    EXPECT_EQ(table.locate(1, k * tile_bytes).disk,
              table.locate(2, k * tile_bytes).disk);
  }
}

TEST(Tiling, LayoutObliviousOnlyChangesLoops) {
  const ir::Program p = tiling_program();
  TilingOptions o = small_options();
  o.layout_aware = false;
  const TilingResult result = apply_loop_tiling(p, o);
  EXPECT_TRUE(result.applied);
  EXPECT_TRUE(result.reshaped_arrays.empty());
  EXPECT_EQ(result.program.arrays[1].rank(), 2);
  EXPECT_EQ(result.striping[1], o.base_striping);
  EXPECT_EQ(result.program.nests[1].depth(), 4);
}

TEST(Tiling, FamilyOfIdenticalNestsTiledTogether) {
  ProgramBuilder pb("family");
  const ArrayId m = pb.array("M", {128, 128});
  for (int k = 0; k < 3; ++k) {
    pb.nest("jac" + std::to_string(k))
        .loop("i", 0, 128)
        .loop("j", 0, 128)
        .stmt(50'000.0)
        .read(m, {sym("i"), sym("j")})
        .write(m, {sym("i"), sym("j")})
        .done();
  }
  const TilingResult result = apply_loop_tiling(pb.build(), small_options());
  EXPECT_TRUE(result.applied);
  // M is confined to the (identical) family -> reshaped, and every family
  // member was tiled.
  EXPECT_EQ(result.reshaped_arrays.size(), 1u);
  for (const ir::LoopNest& nest : result.program.nests) {
    EXPECT_EQ(nest.depth(), 4);
  }
  result.program.validate();
}

TEST(Tiling, ArrayReferencedOutsideFamilyNotReshaped) {
  ProgramBuilder pb("notprivate");
  const ArrayId m = pb.array("M", {128, 128});
  pb.nest("big")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(50'000.0)
      .read(m, {sym("i"), sym("j")})
      .done();
  pb.nest("other")  // different structure, same array
      .loop("i", 0, 64)
      .loop("j", 0, 64)
      .stmt(1.0)
      .read(m, {sym("i"), sym("j")})
      .done();
  const TilingResult result = apply_loop_tiling(pb.build(), small_options());
  EXPECT_TRUE(result.applied);
  EXPECT_TRUE(result.reshaped_arrays.empty());
  EXPECT_NE(result.note.find("not applicable"), std::string::npos);
}

TEST(Tiling, InconsistentOrientationBlocksReshape) {
  // The same array read both as M[i][j] and M[j][i] cannot be blocked.
  ProgramBuilder pb("both");
  const ArrayId m = pb.array("M", {128, 128});
  pb.nest("n")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(50'000.0)
      .read(m, {sym("i"), sym("j")})
      .read(m, {sym("j"), sym("i")})
      .done();
  const TilingResult result = apply_loop_tiling(pb.build(), small_options());
  EXPECT_TRUE(result.applied);
  EXPECT_TRUE(result.reshaped_arrays.empty());
}

TEST(Tiling, NonPermutationSubscriptNotTilable) {
  ProgramBuilder pb("stencil");
  const ArrayId m = pb.array("M", {130, 130});
  pb.nest("n")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(50'000.0)
      .read(m, {sym("i") + 1, sym("j") + 1})  // constant offsets
      .done();
  const TilingResult result = apply_loop_tiling(pb.build(), small_options());
  EXPECT_FALSE(result.applied);
  EXPECT_NE(result.note.find("not a permutation"), std::string::npos);
}

TEST(Tiling, DepthOneNestNotTilable) {
  ProgramBuilder pb("shallow");
  const ArrayId v = pb.array("V", {4096});
  pb.nest("n").loop("i", 0, 4096).stmt(1.0).read(v, {sym("i")}).done();
  const TilingResult result = apply_loop_tiling(pb.build(), small_options());
  EXPECT_FALSE(result.applied);
}

TEST(Tiling, AccessesPreservedThroughReshape) {
  // The blocked program must touch exactly as many distinct tiles as the
  // original touches element regions: verify via total misses with no
  // cache at tile granularity.
  const ir::Program p = tiling_program();
  const TilingResult result = apply_loop_tiling(p, small_options());
  const layout::LayoutTable table(result.program, result.striping, 4);
  trace::GeneratorOptions gen;
  gen.cache_bytes = mib(64);  // generous: one miss per distinct block
  const auto misses = trace::collect_misses(result.program, table, gen);
  // M1: tiles touched once each; M2: same; SH: its own blocks.
  const Bytes tile_bytes = result.tile_rows * result.tile_cols * 8;
  const std::int64_t tiles_per_array = (128 * 256 * 8) / tile_bytes;
  std::int64_t m_misses = 0;
  for (const auto& miss : *misses) {
    if (miss.array != 0) ++m_misses;
  }
  EXPECT_EQ(m_misses, 2 * tiles_per_array);
}

TEST(MissesPerNest, CountsAttributedCorrectly) {
  const ir::Program p = tiling_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  trace::GeneratorOptions gen;
  gen.cache_bytes = mib(64);  // one miss per distinct block
  const auto counts = misses_per_nest(p, table, gen);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 8);  // SH: 512 KB / 64 KB
  EXPECT_EQ(counts[1], 8);  // M1 (4 blocks) + M2 (4 blocks), writes hit
}

TEST(DiskEnergyPerNest, DurationDominatedRanking) {
  const ir::Program p = tiling_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  trace::GeneratorOptions gen;
  gen.cache_bytes = 0;
  const auto energy =
      disk_energy_per_nest(p, table, disk::DiskParameters(), gen, 4);
  ASSERT_EQ(energy.size(), 2u);
  EXPECT_GT(energy[1], energy[0]);
}

TEST(Tiling, RanksNestsOnTheJobsDevice) {
  // "compute" runs ~1.5 s over 2 blocks, "stream" ~0.3 ms over 32.  On the
  // paper disk (~6.6 ms per miss) the long nest costs more; on a device
  // whose seeks take 500 ms the many-miss nest does, and the pass tiles it.
  ProgramBuilder pb("rank");
  const ArrayId small = pb.array("A", {128, 128});
  const ArrayId big = pb.array("B", {512, 512});
  pb.nest("compute")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(70'000.0)
      .read(small, {sym("i"), sym("j")})
      .done();
  pb.nest("stream")
      .loop("i", 0, 512)
      .loop("j", 0, 512)
      .stmt(1.0)
      .read(big, {sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();
  disk::PowerLadder ladder = disk::DiskParameters().ladder();
  ladder.average_seek_time = 500.0;
  const disk::DiskParameters slow_seek =
      disk::DiskParameters::from_ladder(ladder);

  TilingOptions o = small_options();
  o.access.cache_bytes = mib(64);  // one miss per distinct block
  const layout::LayoutTable table(p, o.base_striping, o.total_disks);
  const auto paper = disk_energy_per_nest(p, table, disk::DiskParameters(),
                                          o.access, o.total_disks);
  const auto slow = disk_energy_per_nest(p, table, slow_seek, o.access,
                                         o.total_disks);
  ASSERT_EQ(paper.size(), 2u);
  EXPECT_GT(paper[0], paper[1]);
  EXPECT_GT(slow[1], slow[0]);

  EXPECT_EQ(apply_loop_tiling(p, o).tiled_nest, 0);
  o.disk_params = slow_seek;
  const TilingResult result = apply_loop_tiling(p, o);
  EXPECT_TRUE(result.applied);
  EXPECT_EQ(result.tiled_nest, 1);
}

TEST(MultiNestTiling, TilesEveryApplicableFamily) {
  // Two private-array nest families with different costs: the multi-nest
  // extension tiles both; the single-nest pass tiles only the costlier.
  ProgramBuilder pb("multi");
  const ArrayId m1 = pb.array("M1", {128, 128});
  const ArrayId m2 = pb.array("M2", {128, 128});
  pb.nest("heavy")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(90'000.0)
      .read(m1, {sym("i"), sym("j")})
      .write(m1, {sym("i"), sym("j")})
      .done();
  pb.nest("light")
      .loop("i", 0, 128)
      .loop("j", 0, 128)
      .stmt(30'000.0)
      .read(m2, {sym("i"), sym("j")})
      .write(m2, {sym("i"), sym("j")})
      .done();
  const ir::Program p = pb.build();

  TilingOptions single = small_options();
  const TilingResult one = apply_loop_tiling(p, single);
  EXPECT_EQ(one.reshaped_arrays.size(), 1u);
  EXPECT_EQ(one.tiled_nest, 0);

  TilingOptions multi = small_options();
  multi.all_nests = true;
  const TilingResult all = apply_loop_tiling(p, multi);
  EXPECT_TRUE(all.applied);
  EXPECT_EQ(all.reshaped_arrays.size(), 2u);
  for (const ir::LoopNest& nest : all.program.nests) {
    EXPECT_EQ(nest.depth(), 4);
  }
  all.program.validate();
}

TEST(MultiNestTiling, TerminatesOnUntilableProgram) {
  ProgramBuilder pb("flat");
  const ArrayId v = pb.array("V", {4096});
  pb.nest("n").loop("i", 0, 4096).stmt(1.0).read(v, {sym("i")}).done();
  TilingOptions multi = small_options();
  multi.all_nests = true;
  const TilingResult result = apply_loop_tiling(pb.build(), multi);
  EXPECT_FALSE(result.applied);
}

TEST(MultiNestTiling, EquivalentAccessesPreserved) {
  ProgramBuilder pb("multi2");
  const ArrayId m1 = pb.array("M1", {64, 64});
  const ArrayId m2 = pb.array("M2", {64, 64});
  pb.nest("a")
      .loop("i", 0, 64)
      .loop("j", 0, 64)
      .stmt(50'000.0)
      .read(m1, {sym("i"), sym("j")})
      .done();
  pb.nest("b")
      .loop("i", 0, 64)
      .loop("j", 0, 64)
      .stmt(40'000.0)
      .read(m2, {sym("j"), sym("i")})
      .done();
  const ir::Program p = pb.build();
  TilingOptions multi = small_options();
  multi.all_nests = true;
  multi.tile_bytes = kib(8);
  const TilingResult result = apply_loop_tiling(p, multi);
  EXPECT_EQ(result.reshaped_arrays.size(), 2u);
  // M2 is accessed transposed: it must be among the permuted arrays.
  EXPECT_EQ(result.permuted_arrays.size(), 1u);
  // Same number of iterations overall.
  std::int64_t before = 0, after = 0;
  for (const auto& nest : p.nests) before += nest.iteration_count();
  for (const auto& nest : result.program.nests) {
    after += nest.iteration_count();
  }
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace sdpm::core
