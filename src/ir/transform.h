// Mechanical loop transformations on the IR.
//
// These are the two *mechanisms* the paper's compiler restructures code
// with, fission and tiling; the *policies* that decide where to apply them
// — the paper's Figure 11 and Figure 12 algorithms — live in core/.  The
// tiling pass flips array layouts itself, and the strip-mined call sites
// of power calls are modelled by the scheduler's call_site_granularity
// (core/schedule.h), so no other mechanism is needed.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.h"

namespace sdpm::ir {

/// Distribute (fission) a nest into one nest per statement group.  Each
/// group is a list of statement indices into `nest.body`; groups must
/// partition the body.  Loop structure and bounds are preserved; per-group
/// compute cost is the sum of the group's statement costs.  Legality
/// (absence of fission-preventing dependences) is the caller's
/// responsibility — core::FissionPass checks it.
std::vector<LoopNest> fission(const LoopNest& nest,
                              const std::vector<std::vector<int>>& groups);

/// Tile `tile_sizes.size()` consecutive loops of a nest starting at
/// `first_loop` (paper Fig. 10/12).  Produces a nest whose loop order is:
/// loops before `first_loop` unchanged, then the tile iterators, then the
/// element iterators, then any remaining inner loops; all subscripts are
/// rewritten via affine substitution.  Each tiled loop must have unit step
/// and a trip count divisible by its tile size.
LoopNest tile(const LoopNest& nest,
              const std::vector<std::int64_t>& tile_sizes,
              int first_loop = 0);

}  // namespace sdpm::ir
