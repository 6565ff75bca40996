// Disk-resident multi-dimensional arrays.
//
// Each array models one file on the parallel disk subsystem: a name, its
// extents, element size, and its storage order (row- or column-major).  The
// storage order determines the file offset of each element, which — combined
// with the striping description in layout/ — determines which disk an access
// touches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/units.h"

namespace sdpm::ir {

/// Index of an array within its Program.
using ArrayId = int;

/// Linearization order of array elements within the backing file.
enum class StorageLayout {
  kRowMajor,  ///< last dimension contiguous (C order)
  kColMajor,  ///< first dimension contiguous (Fortran order)
};

const char* to_string(StorageLayout layout);

/// A disk-resident array (one file).
struct Array {
  std::string name;
  std::vector<std::int64_t> extents;  ///< size of each dimension
  Bytes element_size = 8;             ///< bytes per element (default double)
  StorageLayout layout = StorageLayout::kRowMajor;

  int rank() const { return static_cast<int>(extents.size()); }
  std::int64_t element_count() const;
  Bytes size_bytes() const { return element_count() * element_size; }

  /// Linear element index of a multi-dimensional index under this array's
  /// storage layout.  Bounds are validated in debug builds.
  std::int64_t linear_index(std::span<const std::int64_t> index) const;

  /// Byte offset of an element within the backing file.
  Bytes byte_offset(std::span<const std::int64_t> index) const {
    return linear_index(index) * element_size;
  }

  /// Element stride (in linear-index units) contributed by dimension `dim`
  /// under this array's layout.
  std::int64_t dim_stride(int dim) const;
};

}  // namespace sdpm::ir
