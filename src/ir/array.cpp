#include "ir/array.h"

#include "util/error.h"

namespace sdpm::ir {

const char* to_string(StorageLayout layout) {
  switch (layout) {
    case StorageLayout::kRowMajor:
      return "row-major";
    case StorageLayout::kColMajor:
      return "col-major";
  }
  return "?";
}

std::int64_t Array::element_count() const {
  std::int64_t count = 1;
  for (std::int64_t extent : extents) {
    SDPM_ASSERT(extent > 0, "array extent must be positive");
    count *= extent;
  }
  return count;
}

std::int64_t Array::dim_stride(int dim) const {
  SDPM_ASSERT(dim >= 0 && dim < rank(), "dimension out of range");
  std::int64_t stride = 1;
  if (layout == StorageLayout::kRowMajor) {
    for (int d = rank() - 1; d > dim; --d) stride *= extents[static_cast<std::size_t>(d)];
  } else {
    for (int d = 0; d < dim; ++d) stride *= extents[static_cast<std::size_t>(d)];
  }
  return stride;
}

std::int64_t Array::linear_index(std::span<const std::int64_t> index) const {
  SDPM_ASSERT(static_cast<int>(index.size()) == rank(),
              "index rank mismatch");
  std::int64_t linear = 0;
  for (int d = 0; d < rank(); ++d) {
    const std::int64_t i = index[static_cast<std::size_t>(d)];
    SDPM_ASSERT(i >= 0 && i < extents[static_cast<std::size_t>(d)],
                "array index out of bounds");
    linear += i * dim_stride(d);
  }
  return linear;
}

}  // namespace sdpm::ir
