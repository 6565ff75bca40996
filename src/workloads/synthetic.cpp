#include "workloads/synthetic.h"

#include <algorithm>

#include "ir/builder.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sdpm::workloads {

ir::Program make_synthetic(const SyntheticOptions& options) {
  SDPM_REQUIRE(options.min_arrays >= 1 &&
                   options.max_arrays >= options.min_arrays,
               "bad array count range");
  SDPM_REQUIRE(options.min_nests >= 1 &&
                   options.max_nests >= options.min_nests,
               "bad nest count range");
  SDPM_REQUIRE(options.min_extent >= 16 &&
                   options.max_extent >= options.min_extent,
               "bad extent range");

  SplitMix64 rng(options.seed);
  ir::ProgramBuilder pb(str_printf("synthetic-%llu",
                                   static_cast<unsigned long long>(
                                       options.seed)));

  const auto pick_extent = [&] {
    const std::int64_t span = options.max_extent - options.min_extent + 1;
    const std::int64_t raw =
        options.min_extent +
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(span)));
    return (raw / 16) * 16;  // keep extents divisible for tiling
  };

  // --- arrays ---------------------------------------------------------------
  const int array_count =
      options.min_arrays +
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          options.max_arrays - options.min_arrays + 1)));
  struct ArrayInfo {
    ir::ArrayId id;
    std::int64_t rows;
    std::int64_t cols;
  };
  std::vector<ArrayInfo> arrays;
  for (int a = 0; a < array_count; ++a) {
    std::int64_t rows = pick_extent();
    std::int64_t cols = pick_extent();
    // Square some arrays so transposed references stay in bounds.
    if (rng.next_double() < 0.5) cols = rows;
    const auto layout = rng.next_double() < options.col_major_probability
                            ? ir::StorageLayout::kColMajor
                            : ir::StorageLayout::kRowMajor;
    const ir::ArrayId id =
        pb.array(std::string("A").append(std::to_string(a)), {rows, cols},
                 8, layout);
    arrays.push_back(ArrayInfo{id, rows, cols});
  }

  // --- nests -----------------------------------------------------------------
  const int nest_count =
      options.min_nests +
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          options.max_nests - options.min_nests + 1)));
  for (int n = 0; n < nest_count; ++n) {
    // The nest iterates over the smallest shape among the arrays its
    // statements reference, so every subscript stays in bounds.
    const int stmt_count = 1 + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(
                                       options.max_statements)));
    std::vector<std::vector<std::pair<int, bool>>> stmt_refs(
        static_cast<std::size_t>(stmt_count));  // (array index, transposed)
    std::int64_t rows = options.max_extent;
    std::int64_t cols = options.max_extent;
    for (auto& refs : stmt_refs) {
      const int refs_count = 1 + static_cast<int>(rng.next_below(2));
      for (int r = 0; r < refs_count; ++r) {
        const int ai = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(array_count)));
        const ArrayInfo& info = arrays[static_cast<std::size_t>(ai)];
        const bool transposed =
            info.rows == info.cols &&
            rng.next_double() < options.transpose_probability;
        refs.emplace_back(ai, transposed);
        rows = std::min(rows, transposed ? info.cols : info.rows);
        cols = std::min(cols, transposed ? info.rows : info.cols);
      }
    }

    const Cycles cycles =
        options.mean_cycles_per_iteration * rng.next_double(0.2, 1.8) /
        static_cast<double>(stmt_count);

    auto nb = pb.nest(str_printf("nest%02d", n));
    nb.loop("i", 0, rows).loop("j", 0, cols);
    for (const auto& refs : stmt_refs) {
      nb.stmt(std::max(cycles, 1.0));
      for (std::size_t r = 0; r < refs.size(); ++r) {
        const auto [ai, transposed] = refs[r];
        const ir::ArrayId id = arrays[static_cast<std::size_t>(ai)].id;
        const std::vector<ir::SymExpr> subs =
            transposed
                ? std::vector<ir::SymExpr>{ir::sym("j"), ir::sym("i")}
                : std::vector<ir::SymExpr>{ir::sym("i"), ir::sym("j")};
        if (r == 0 && rng.next_double() < 0.4) {
          nb.write(id, subs);
        } else {
          nb.read(id, subs);
        }
      }
    }
    nb.done();
  }
  return pb.build();
}

}  // namespace sdpm::workloads
