// Layout-aware loop tiling (paper §6.1, Figure 12).
//
// Tiles the most disk-costly nest of the program and, in the layout-aware
// variant (+DL), transforms the storage of the arrays it touches into
// *blocked* (tile-major) order so that the data of one iteration tile is
// contiguous on disk, sets each array's stripe size to its per-tile
// footprint DS(i), and thereby maps co-visited tiles of all arrays onto the
// same disk — at any given time execution touches one disk while the others
// can sit in a low-power mode (Fig. 10's tile-to-disk assignment).
//
// The blocked reshape subsumes the paper's row-major <-> column-major
// transformation: an array whose access pattern does not conform to its
// storage pattern (e.g. U2[j][i]) gets its dimensions permuted into access
// order as part of the blocking — exactly Fig. 12's "if data access pattern
// != storage pattern then transform the data layout".
//
// Faithful to the paper's implementation, the pass handles a single nest
// ("we applied it only to the most costly nest"; multi-nest tiling is future
// work there, available here via TilingOptions::nest_override +
// repeated application).  An array is only reshaped when every one of its
// references lives in the tiled nest — reshaping data used elsewhere would
// change the meaning of the other nests, which is the situation the paper
// acknowledges as the approach's limitation.
#pragma once

#include <string>
#include <vector>

#include "disk/parameters.h"
#include "ir/program.h"
#include "layout/striping.h"
#include "trace/generator.h"

namespace sdpm::core {

struct TilingOptions {
  /// Apply the layout transformation + tile-to-disk mapping (TL+DL); when
  /// false only the loop structure changes (TL).
  bool layout_aware = true;
  int total_disks = 8;
  layout::Striping base_striping{};
  /// Access-model options used to rank nests by disk cost.
  trace::GeneratorOptions access;
  /// Disk model the nests' energy is ranked on (the compiler passes its
  /// CompilerOptions::disk_params, the job's device).
  disk::DiskParameters disk_params = disk::DiskParameters::ultrastar_36z15();
  /// Force the nest to tile (-1 = pick the most costly one).
  int nest_override = -1;
  /// Target per-array tile footprint; tile sizes are chosen as divisors of
  /// the loop trip counts closest to this footprint.
  Bytes tile_bytes = 256 * 1024;
  /// Extension (the paper's stated future work): instead of tiling only the
  /// most costly nest, repeatedly apply the pass to every nest family it is
  /// applicable to, in decreasing disk-energy order.
  bool all_nests = false;
};

struct TilingResult {
  ir::Program program;
  /// Per-array striping; reshaped arrays get stripe size = DS(i).
  std::vector<layout::Striping> striping;
  bool applied = false;
  int tiled_nest = -1;
  std::int64_t tile_rows = 0;
  std::int64_t tile_cols = 0;
  /// Arrays whose storage was blocked (in access order).
  std::vector<ir::ArrayId> reshaped_arrays;
  /// Among those, the ones that required an access-order permutation (the
  /// paper's row-major -> column-major transformation).
  std::vector<ir::ArrayId> permuted_arrays;
  std::string note;  ///< why the pass did / did not apply
};

/// Rank the nests of `program` by the number of disk requests they cause
/// under `layout`.
std::vector<std::int64_t> misses_per_nest(const ir::Program& program,
                                          const layout::LayoutTable& layout,
                                          const trace::GeneratorOptions& options);

/// Estimated disk energy of every nest on disks of model `params`: its
/// duration keeps all disks at top-level idle power, and every miss adds
/// an active-service increment.  This is the ranking used to pick "the
/// most costly nest (as far as disk energy is concerned)".
std::vector<double> disk_energy_per_nest(const ir::Program& program,
                                         const layout::LayoutTable& layout,
                                         const disk::DiskParameters& params,
                                         const trace::GeneratorOptions& options,
                                         int total_disks);

/// Apply Figure 12 to `program`.  With `options.all_nests` the pass chains
/// over every applicable nest family (multi-nest tiling); the returned
/// TilingResult then aggregates the reshaped arrays and striping of every
/// application, and `tiled_nest` names the first (most costly) one.
TilingResult apply_loop_tiling(const ir::Program& program,
                               const TilingOptions& options = {});

}  // namespace sdpm::core
