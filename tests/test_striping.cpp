// FileLayout: the PVFS-style (starting disk, stripe factor, stripe size)
// mapping, including the paper's Figure 2 example.
#include <gtest/gtest.h>

#include "layout/layout_table.h"
#include "layout/striping.h"
#include "util/error.h"
#include "util/rng.h"

namespace sdpm::layout {
namespace {

TEST(Striping, ToString) {
  const Striping s{0, 8, kib(64)};
  EXPECT_EQ(s.to_string(), "(start=0, factor=8, stripe=64 KB)");
}

TEST(FileLayout, PaperFigure2U1) {
  // "array U1 is striped over all four disks... the disk layout of this
  //  array can be expressed as (0, 4, S)" with total size 4S.
  const Bytes s = kib(64);
  const FileLayout u1(Striping{0, 4, s}, 4 * s, 4);
  EXPECT_EQ(u1.locate(0).disk, 0);
  EXPECT_EQ(u1.locate(s).disk, 1);
  EXPECT_EQ(u1.locate(2 * s).disk, 2);
  EXPECT_EQ(u1.locate(3 * s).disk, 3);
  EXPECT_EQ(u1.disks_used(), (std::vector<int>{0, 1, 2, 3}));
  // "for array U1, we access the first two disks (disk0 and disk1)" when
  // reading elements [0, 2S).
  EXPECT_EQ(u1.locate(2 * s - 1).disk, 1);
}

TEST(FileLayout, PaperFigure2U2) {
  // Array U2 lives entirely on disk2: layout (2, 1, S).
  const Bytes s = kib(64);
  const FileLayout u2(Striping{2, 1, s}, 2 * s, 4);
  EXPECT_EQ(u2.locate(0).disk, 2);
  EXPECT_EQ(u2.locate(2 * s - 1).disk, 2);
  EXPECT_EQ(u2.disks_used(), (std::vector<int>{2}));
}

TEST(FileLayout, RoundRobinPlacement) {
  const FileLayout layout(Striping{0, 4, 100}, 1000, 8);
  for (Bytes off = 0; off < 1000; ++off) {
    EXPECT_EQ(layout.locate(off).disk, static_cast<int>((off / 100) % 4));
  }
}

TEST(FileLayout, StartingDiskOffsetsRotation) {
  const FileLayout layout(Striping{3, 4, 100}, 800, 8);
  EXPECT_EQ(layout.locate(0).disk, 3);
  EXPECT_EQ(layout.locate(100).disk, 4);
  EXPECT_EQ(layout.locate(300).disk, 6);
  EXPECT_EQ(layout.locate(400).disk, 3);  // wraps within the window
}

TEST(FileLayout, WindowWrapsModuloTotalDisks) {
  const FileLayout layout(Striping{6, 4, 10}, 100, 8);
  EXPECT_EQ(layout.locate(0).disk, 6);
  EXPECT_EQ(layout.locate(10).disk, 7);
  EXPECT_EQ(layout.locate(20).disk, 0);
  EXPECT_EQ(layout.locate(30).disk, 1);
}

TEST(FileLayout, LocatePacksStripesPerDisk) {
  const FileLayout layout(Striping{0, 4, 100}, 1000, 4);
  // Stripe 0 and stripe 4 both live on disk 0, back to back.
  EXPECT_EQ(layout.locate(0), (DiskLocation{0, 0}));
  EXPECT_EQ(layout.locate(405), (DiskLocation{0, 105}));
  // Stripe 5 -> disk 1, second stripe slot.
  EXPECT_EQ(layout.locate(510), (DiskLocation{1, 110}));
}

TEST(FileLayout, BytesOnDiskSumsToFileSize) {
  SplitMix64 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const int total = 1 + static_cast<int>(rng.next_below(12));
    const int factor = 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(total)));
    const int start = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(total)));
    const Bytes stripe = 64 * (1 + static_cast<Bytes>(rng.next_below(8)));
    const Bytes size = static_cast<Bytes>(rng.next_below(10'000));
    const FileLayout layout(Striping{start, factor, stripe}, size, total);
    Bytes sum = 0;
    for (int d = 0; d < total; ++d) sum += layout.bytes_on_disk(d);
    // Allocation is rounded up to whole stripes.
    EXPECT_EQ(sum, layout.stripe_count() * stripe);
    EXPECT_GE(sum, size);
  }
}

TEST(FileLayout, InvalidConfigurationsThrow) {
  EXPECT_THROW(FileLayout(Striping{0, 0, 64}, 100, 4), Error);   // factor 0
  EXPECT_THROW(FileLayout(Striping{0, 5, 64}, 100, 4), Error);   // factor > disks
  EXPECT_THROW(FileLayout(Striping{4, 2, 64}, 100, 4), Error);   // bad start
  EXPECT_THROW(FileLayout(Striping{0, 2, 0}, 100, 4), Error);    // stripe 0
  EXPECT_THROW(FileLayout(Striping{0, 2, 64}, -1, 4), Error);    // neg size
}

TEST(FileLayout, StripeHelpers) {
  const FileLayout layout(Striping{0, 2, 100}, 950, 2);
  EXPECT_EQ(layout.stripe_count(), 10);  // a partial last stripe counts
  EXPECT_EQ(FileLayout(Striping{0, 2, 100}, 1000, 2).stripe_count(), 10);
}

TEST(FileLayout, DisksUsedLimitedByFileSize) {
  // A file smaller than one stripe only ever touches the starting disk.
  const FileLayout layout(Striping{1, 4, 1000}, 500, 8);
  EXPECT_EQ(layout.disks_used(), (std::vector<int>{1}));
}

TEST(PhysicalLocation, SectorNumbers) {
  PhysicalLocation loc;
  loc.disk = 1;
  loc.disk_byte = 1024;
  EXPECT_EQ(loc.sector(), 2);
}

}  // namespace
}  // namespace sdpm::layout
