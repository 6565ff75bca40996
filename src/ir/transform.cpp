#include "ir/transform.h"

#include <algorithm>

#include "util/error.h"

namespace sdpm::ir {

namespace {

/// Rewrite every subscript in `nest` by substituting each original loop
/// variable with an affine expression over the new loop list.
void substitute_body(LoopNest& nest, std::span<const AffineExpr> sub) {
  for (Statement& s : nest.body) {
    for (ArrayRef& ref : s.refs) {
      for (AffineExpr& e : ref.subscripts) {
        e = e.substituted(sub);
      }
    }
  }
}

}  // namespace

std::vector<LoopNest> fission(const LoopNest& nest,
                              const std::vector<std::vector<int>>& groups) {
  // Check that the groups partition the body.
  std::vector<bool> seen(nest.body.size(), false);
  for (const auto& group : groups) {
    SDPM_REQUIRE(!group.empty(), "fission: empty statement group");
    for (int si : group) {
      SDPM_REQUIRE(si >= 0 && si < static_cast<int>(nest.body.size()),
                   "fission: statement index out of range");
      SDPM_REQUIRE(!seen[static_cast<std::size_t>(si)],
                   "fission: statement assigned to two groups");
      seen[static_cast<std::size_t>(si)] = true;
    }
  }
  SDPM_REQUIRE(std::all_of(seen.begin(), seen.end(),
                           [](bool b) { return b; }),
               "fission: groups must cover every statement");

  std::vector<LoopNest> out;
  out.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    LoopNest part;
    part.name = nest.name + ".f" + std::to_string(g + 1);
    part.loops = nest.loops;
    part.loop_overhead_cycles = nest.loop_overhead_cycles;
    for (int si : groups[g]) {
      part.body.push_back(nest.body[static_cast<std::size_t>(si)]);
    }
    out.push_back(std::move(part));
  }
  return out;
}

LoopNest tile(const LoopNest& nest,
              const std::vector<std::int64_t>& tile_sizes, int first_loop) {
  const int tiled = static_cast<int>(tile_sizes.size());
  SDPM_REQUIRE(tiled >= 1 && first_loop >= 0 &&
                   first_loop + tiled <= nest.depth(),
               "tile: tiled loop range out of bounds");

  for (int k = 0; k < tiled; ++k) {
    const Loop& loop = nest.loops[static_cast<std::size_t>(first_loop + k)];
    SDPM_REQUIRE(loop.step == 1, "tile: loops must have unit step");
    SDPM_REQUIRE(tile_sizes[static_cast<std::size_t>(k)] > 0,
                 "tile: tile sizes must be positive");
    SDPM_REQUIRE(loop.trip_count() %
                         tile_sizes[static_cast<std::size_t>(k)] ==
                     0,
                 "tile: tile size must divide the trip count of loop '" +
                     loop.var + "'");
  }

  LoopNest out;
  out.name = nest.name + ".tiled";
  out.loop_overhead_cycles = nest.loop_overhead_cycles;
  out.body = nest.body;

  // Loops before the tiled range unchanged, then tile iterators (ii, jj,
  // ...), then element iterators (i, j, ...), then any remaining inner
  // loops.
  for (int k = 0; k < first_loop; ++k) {
    out.loops.push_back(nest.loops[static_cast<std::size_t>(k)]);
  }
  for (int k = 0; k < tiled; ++k) {
    const Loop& loop = nest.loops[static_cast<std::size_t>(first_loop + k)];
    out.loops.push_back(Loop{
        loop.var + loop.var, 0,
        loop.trip_count() / tile_sizes[static_cast<std::size_t>(k)], 1});
  }
  for (int k = 0; k < tiled; ++k) {
    const Loop& loop = nest.loops[static_cast<std::size_t>(first_loop + k)];
    out.loops.push_back(
        Loop{loop.var, 0, tile_sizes[static_cast<std::size_t>(k)], 1});
  }
  for (int k = first_loop + tiled; k < nest.depth(); ++k) {
    out.loops.push_back(nest.loops[static_cast<std::size_t>(k)]);
  }

  const std::size_t new_depth = out.loops.size();
  std::vector<AffineExpr> sub(static_cast<std::size_t>(nest.depth()));
  for (int k = 0; k < nest.depth(); ++k) {
    AffineExpr e;
    e.coefs.assign(new_depth, 0);
    if (k < first_loop) {
      e.coefs[static_cast<std::size_t>(k)] = 1;
    } else if (k < first_loop + tiled) {
      const Loop& loop = nest.loops[static_cast<std::size_t>(k)];
      const int j = k - first_loop;
      // original = lower + tile_iter*T + element_iter
      e.coefs[static_cast<std::size_t>(k)] =
          tile_sizes[static_cast<std::size_t>(j)];
      e.coefs[static_cast<std::size_t>(k + tiled)] = 1;
      e.constant = loop.lower;
    } else {
      e.coefs[static_cast<std::size_t>(k + tiled)] = 1;
    }
    sub[static_cast<std::size_t>(k)] = e;
  }
  substitute_body(out, sub);
  return out;
}

}  // namespace sdpm::ir
