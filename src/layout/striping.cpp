#include "layout/striping.h"

#include "util/error.h"
#include "util/strings.h"

namespace sdpm::layout {

std::string Striping::to_string() const {
  return str_printf("(start=%d, factor=%d, stripe=%s)", starting_disk,
                    stripe_factor, fmt_bytes(stripe_size).c_str());
}

FileLayout::FileLayout(Striping striping, Bytes file_size, int total_disks)
    : striping_(striping), file_size_(file_size), total_disks_(total_disks) {
  SDPM_REQUIRE(total_disks >= 1, "need at least one disk");
  SDPM_REQUIRE(striping_.stripe_factor >= 1 &&
                   striping_.stripe_factor <= total_disks,
               "stripe factor must be in [1, total disks]");
  SDPM_REQUIRE(striping_.starting_disk >= 0 &&
                   striping_.starting_disk < total_disks,
               "starting disk out of range");
  SDPM_REQUIRE(striping_.stripe_size > 0, "stripe size must be positive");
  SDPM_REQUIRE(file_size_ >= 0, "file size must be non-negative");
}

std::int64_t FileLayout::stripe_count() const {
  return (file_size_ + striping_.stripe_size - 1) / striping_.stripe_size;
}

DiskLocation FileLayout::locate(Bytes offset) const {
  SDPM_ASSERT(offset >= 0 && offset < file_size_, "file offset out of range");
  const std::int64_t stripe = offset / striping_.stripe_size;
  const Bytes within = offset % striping_.stripe_size;
  DiskLocation loc;
  loc.disk = (striping_.starting_disk +
              static_cast<int>(stripe % striping_.stripe_factor)) %
             total_disks_;
  loc.offset = (stripe / striping_.stripe_factor) * striping_.stripe_size +
               within;
  return loc;
}

Bytes FileLayout::bytes_on_disk(int disk) const {
  Bytes total = 0;
  const std::int64_t stripes = stripe_count();
  for (int k = 0; k < striping_.stripe_factor; ++k) {
    const int d = (striping_.starting_disk + k) % total_disks_;
    if (d != disk) continue;
    // Stripes k, k+factor, k+2*factor, ... land on disk d.
    if (stripes > k) {
      const std::int64_t count =
          (stripes - k + striping_.stripe_factor - 1) /
          striping_.stripe_factor;
      total += count * striping_.stripe_size;
    }
  }
  return total;
}

std::vector<int> FileLayout::disks_used() const {
  std::vector<int> disks;
  const std::int64_t stripes = stripe_count();
  for (int k = 0;
       k < striping_.stripe_factor && static_cast<std::int64_t>(k) < stripes;
       ++k) {
    disks.push_back((striping_.starting_disk + k) % total_disks_);
  }
  return disks;
}

}  // namespace sdpm::layout
