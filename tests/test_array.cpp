// ir::Array: layout strides and linearization.
#include <gtest/gtest.h>

#include "ir/array.h"
#include "util/error.h"

namespace sdpm::ir {
namespace {

Array make_array(StorageLayout layout) {
  Array a;
  a.name = std::string("U");
  a.extents = {4, 6};
  a.element_size = 8;
  a.layout = layout;
  return a;
}

TEST(Array, ElementCountAndSize) {
  const Array a = make_array(StorageLayout::kRowMajor);
  EXPECT_EQ(a.rank(), 2);
  EXPECT_EQ(a.element_count(), 24);
  EXPECT_EQ(a.size_bytes(), 192);
}

TEST(Array, RowMajorStrides) {
  const Array a = make_array(StorageLayout::kRowMajor);
  EXPECT_EQ(a.dim_stride(0), 6);  // rows are 6 elements apart
  EXPECT_EQ(a.dim_stride(1), 1);
}

TEST(Array, ColMajorStrides) {
  const Array a = make_array(StorageLayout::kColMajor);
  EXPECT_EQ(a.dim_stride(0), 1);
  EXPECT_EQ(a.dim_stride(1), 4);  // columns are 4 elements apart
}

TEST(Array, RowMajorLinearIndex) {
  const Array a = make_array(StorageLayout::kRowMajor);
  const std::int64_t idx[] = {2, 3};
  EXPECT_EQ(a.linear_index(idx), 2 * 6 + 3);
  EXPECT_EQ(a.byte_offset(idx), (2 * 6 + 3) * 8);
}

TEST(Array, ColMajorLinearIndex) {
  const Array a = make_array(StorageLayout::kColMajor);
  const std::int64_t idx[] = {2, 3};
  EXPECT_EQ(a.linear_index(idx), 2 + 3 * 4);
}

TEST(Array, LinearIndexIsBijective) {
  for (const StorageLayout layout :
       {StorageLayout::kRowMajor, StorageLayout::kColMajor}) {
    const Array a = make_array(layout);
    std::vector<bool> seen(static_cast<std::size_t>(a.element_count()),
                           false);
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t j = 0; j < 6; ++j) {
        const std::int64_t idx[] = {i, j};
        const std::int64_t lin = a.linear_index(idx);
        ASSERT_GE(lin, 0);
        ASSERT_LT(lin, a.element_count());
        ASSERT_FALSE(seen[static_cast<std::size_t>(lin)]);
        seen[static_cast<std::size_t>(lin)] = true;
      }
    }
  }
}

TEST(Array, ThreeDimensionalRowMajor) {
  Array a;
  a.extents = {2, 3, 5};
  a.element_size = 4;
  EXPECT_EQ(a.dim_stride(0), 15);
  EXPECT_EQ(a.dim_stride(1), 5);
  EXPECT_EQ(a.dim_stride(2), 1);
  const std::int64_t idx[] = {1, 2, 4};
  EXPECT_EQ(a.linear_index(idx), 15 + 10 + 4);
}

TEST(Array, FourDimensionalBlockedShape) {
  // The blocked reshape used by the tiling pass: [NT1][NT2][T1][T2].
  Array a;
  a.extents = {4, 8, 128, 256};
  a.element_size = 8;
  // Tile (ii, jj) starts at element (ii*8 + jj) * 128*256: tile-major.
  const std::int64_t idx[] = {1, 2, 0, 0};
  EXPECT_EQ(a.linear_index(idx), (1 * 8 + 2) * 128 * 256);
}

TEST(Array, LayoutNames) {
  EXPECT_STREQ(to_string(StorageLayout::kRowMajor), "row-major");
  EXPECT_STREQ(to_string(StorageLayout::kColMajor), "col-major");
}

}  // namespace
}  // namespace sdpm::ir
