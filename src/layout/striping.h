// Disk striping model.
//
// The paper specifies a file's placement on the disk subsystem with the
// PVFS-style 3-tuple (starting disk, stripe factor, stripe size): the file
// is cut into stripe-size units distributed round-robin over `stripe
// factor` consecutive disks beginning at `starting disk` (paper §3, Table 1
// "Striping Information").  One I/O node == one disk; no nested striping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace sdpm::layout {

/// Sector size used for trace block numbers (DiskSim convention).
inline constexpr Bytes kSectorBytes = 512;

/// The (starting disk, stripe factor, stripe size) placement tuple.
struct Striping {
  int starting_disk = 0;    ///< first I/O node used ("base" in PVFS)
  int stripe_factor = 8;    ///< number of disks used ("pcount")
  Bytes stripe_size = 64 * 1024;  ///< stripe unit in bytes ("ssize")

  std::string to_string() const;
  friend bool operator==(const Striping&, const Striping&) = default;
};

/// A physical location: byte offset within one disk's region of a file.
struct DiskLocation {
  int disk = 0;
  Bytes offset = 0;  ///< offset within this file's region on that disk
  friend bool operator==(const DiskLocation&, const DiskLocation&) = default;
};

/// Striped placement of one file (one array) over the disk subsystem.
class FileLayout {
 public:
  /// `total_disks` is the number of disks in the subsystem; the stripe
  /// window [starting_disk, starting_disk + stripe_factor) wraps modulo
  /// `total_disks`.
  FileLayout(Striping striping, Bytes file_size, int total_disks);

  const Striping& striping() const { return striping_; }
  Bytes file_size() const { return file_size_; }
  int total_disks() const { return total_disks_; }

  /// Physical location (disk + per-disk offset) of file byte `offset`.
  DiskLocation locate(Bytes offset) const;

  /// Bytes of this file stored on `disk` (for region allocation).
  Bytes bytes_on_disk(int disk) const;

  /// Disks actually used by this file, in stripe order.
  std::vector<int> disks_used() const;

  std::int64_t stripe_count() const;

 private:
  Striping striping_;
  Bytes file_size_;
  int total_disks_;
};

}  // namespace sdpm::layout
