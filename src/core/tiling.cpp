#include "core/tiling.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "disk/parameters.h"
#include "ir/transform.h"
#include "trace/timeline.h"
#include "util/error.h"

namespace sdpm::core {

std::vector<std::int64_t> misses_per_nest(
    const ir::Program& program, const layout::LayoutTable& layout,
    const trace::GeneratorOptions& options) {
  const trace::IterationSpace space(program);
  std::vector<std::int64_t> counts(program.nests.size(), 0);
  const auto misses = trace::collect_misses(program, layout, options);
  for (const trace::MissRecord& miss : *misses) {
    ++counts[static_cast<std::size_t>(
        space.point_of(miss.global_iter).nest_index)];
  }
  return counts;
}

std::vector<double> disk_energy_per_nest(
    const ir::Program& program, const layout::LayoutTable& layout,
    const disk::DiskParameters& params,
    const trace::GeneratorOptions& options, int total_disks) {
  const trace::Timeline timeline(program, options.clock_hz);
  const std::vector<std::int64_t> misses =
      misses_per_nest(program, layout, options);
  // Rough per-miss service estimate: seek + rotation + one block transfer.
  const int top = params.max_level();
  const TimeMs service = params.ladder().average_seek_time +
                         params.rotational_latency_at_level(top) +
                         64.0 / params.transfer_rate_at_level(top);
  std::vector<double> energy(program.nests.size(), 0.0);
  for (std::size_t n = 0; n < program.nests.size(); ++n) {
    const TimeMs duration =
        timeline.per_iteration_ms(static_cast<int>(n)) *
            static_cast<double>(program.nests[n].iteration_count()) +
        service * static_cast<double>(misses[n]);
    energy[n] = joules_from_watt_ms(
                    params.idle_power_at_level(params.max_level()),
                    duration) *
                    static_cast<double>(total_disks) +
                joules_from_watt_ms(
                    params.active_power_at_level(params.max_level()) -
                        params.idle_power_at_level(params.max_level()),
                    service) *
                    static_cast<double>(misses[n]);
  }
  return energy;
}

namespace {

/// The single loop index a subscript reads (coef 1, constant 0), or -1 when
/// the subscript has any other shape.
int single_loop_of(const ir::AffineExpr& expr) {
  if (expr.constant != 0) return -1;
  int loop = -1;
  for (std::size_t k = 0; k < expr.coefs.size(); ++k) {
    if (expr.coefs[k] == 0) continue;
    if (loop != -1 || expr.coefs[k] != 1) return -1;
    loop = static_cast<int>(k);
  }
  return loop;
}

/// Pick the divisor pair (T1 | n1, T2 | n2) whose footprint T1*T2*elem is
/// closest to `target`, preferring squarish tiles on ties.
std::pair<std::int64_t, std::int64_t> choose_tiles(std::int64_t n1,
                                                   std::int64_t n2,
                                                   Bytes elem, Bytes target,
                                                   std::int64_t t1_cap) {
  auto divisors = [](std::int64_t n) {
    std::vector<std::int64_t> out;
    for (std::int64_t d = 1; d * d <= n; ++d) {
      if (n % d == 0) {
        out.push_back(d);
        if (d != n / d) out.push_back(n / d);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::int64_t> d1 = divisors(n1);
  const std::vector<std::int64_t> d2 = divisors(n2);
  std::pair<std::int64_t, std::int64_t> best{1, 1};
  double best_cost = 1e300;
  for (const std::int64_t t1 : d1) {
    if (t1 > t1_cap) continue;
    for (const std::int64_t t2 : d2) {
      const double footprint = static_cast<double>(t1 * t2 * elem);
      const double size_err =
          std::abs(std::log(footprint / static_cast<double>(target)));
      const double shape_err = std::abs(
          std::log(static_cast<double>(t1) / static_cast<double>(t2)));
      const double cost = size_err * 4.0 + shape_err;
      if (cost < best_cost) {
        best_cost = cost;
        best = {t1, t2};
      }
    }
  }
  return best;
}

/// Two nests are structurally identical when they have the same loop bounds
/// and the same references (arrays, kinds, subscripts) — the situation of a
/// single textual nest executed repeatedly (a time-stepped outer loop that
/// the IR represents as separate nest instances).  The tiling pass treats
/// such a family as one nest, exactly as a source-level compiler would.
bool same_structure(const ir::LoopNest& a, const ir::LoopNest& b) {
  if (a.loops.size() != b.loops.size() || a.body.size() != b.body.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.loops.size(); ++k) {
    const ir::Loop& la = a.loops[k];
    const ir::Loop& lb = b.loops[k];
    if (la.lower != lb.lower || la.upper != lb.upper || la.step != lb.step) {
      return false;
    }
  }
  for (std::size_t s = 0; s < a.body.size(); ++s) {
    const ir::Statement& sa = a.body[s];
    const ir::Statement& sb = b.body[s];
    if (sa.refs.size() != sb.refs.size()) return false;
    for (std::size_t r = 0; r < sa.refs.size(); ++r) {
      const ir::ArrayRef& ra = sa.refs[r];
      const ir::ArrayRef& rb = sb.refs[r];
      if (ra.array != rb.array || ra.kind != rb.kind ||
          ra.subscripts != rb.subscripts) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

namespace {

/// One application of Fig. 12 (single nest family).
TilingResult apply_once(const ir::Program& program,
                        const TilingOptions& options) {
  TilingResult result;
  result.program = program;
  result.program.name =
      program.name + (options.layout_aware ? "+TL+DL" : "+TL");
  result.striping.assign(program.arrays.size(), options.base_striping);

  // --- select the most costly nest ---------------------------------------
  int target = options.nest_override;
  if (target < 0) {
    const layout::LayoutTable base_layout(program, options.base_striping,
                                          options.total_disks);
    const std::vector<double> energy =
        disk_energy_per_nest(program, base_layout, options.disk_params,
                             options.access, options.total_disks);
    target = static_cast<int>(
        std::max_element(energy.begin(), energy.end()) - energy.begin());
  }
  SDPM_REQUIRE(target >= 0 && target < static_cast<int>(program.nests.size()),
               "tiling nest index out of range");
  const ir::LoopNest& nest =
      program.nests[static_cast<std::size_t>(target)];

  // --- applicability ------------------------------------------------------
  if (nest.depth() < 2) {
    result.note = "nest '" + nest.name + "' is not tilable (depth < 2)";
    return result;
  }
  // Tile the two innermost loops (the ones that index the arrays; outer
  // loops, e.g. time steps, are left untouched).
  const int k0 = nest.depth() - 2;
  for (int k = k0; k < k0 + 2; ++k) {
    if (nest.loops[static_cast<std::size_t>(k)].step != 1) {
      result.note = "nest '" + nest.name + "' has non-unit steps";
      return result;
    }
  }
  // Every reference must be a 2-D permutation access U[loop_a][loop_b] of
  // the two tiled loops for the blocked reshape to be expressible.
  for (const ir::Statement& stmt : nest.body) {
    for (const ir::ArrayRef& ref : stmt.refs) {
      const ir::Array& arr = program.array(ref.array);
      if (arr.rank() != 2) {
        result.note = "array '" + arr.name + "' is not 2-D";
        return result;
      }
      const int l0 = single_loop_of(ref.subscripts[0]);
      const int l1 = single_loop_of(ref.subscripts[1]);
      if (l0 < 0 || l1 < 0 || l0 == l1 || l0 < k0 || l0 > k0 + 1 ||
          l1 < k0 || l1 > k0 + 1) {
        result.note = "reference to '" + arr.name +
                      "' is not a permutation of the tiled loops";
        return result;
      }
    }
  }

  // --- family of identical nests -------------------------------------------
  // The costly nest typically recurs once per outer time step; all its
  // structurally identical siblings are tiled with it.
  std::vector<bool> in_family(program.nests.size(), false);
  for (int ni = 0; ni < static_cast<int>(program.nests.size()); ++ni) {
    in_family[static_cast<std::size_t>(ni)] =
        same_structure(program.nests[static_cast<std::size_t>(ni)], nest);
  }

  // Which arrays may be reshaped: every one of their references must live
  // inside the family.
  std::vector<bool> confined(program.arrays.size(), true);
  for (int ni = 0; ni < static_cast<int>(program.nests.size()); ++ni) {
    if (in_family[static_cast<std::size_t>(ni)]) continue;
    for (const ir::Statement& stmt :
         program.nests[static_cast<std::size_t>(ni)].body) {
      for (const ir::ArrayRef& ref : stmt.refs) {
        confined[static_cast<std::size_t>(ref.array)] = false;
      }
    }
  }

  // Determine, per array, which tiled loop indexes which dimension (must
  // agree across all references for the blocked reshape to be well-formed).
  std::vector<int> dim0_loop(program.arrays.size(), -1);
  bool consistent = true;
  for (const ir::Statement& stmt : nest.body) {
    for (const ir::ArrayRef& ref : stmt.refs) {
      const int l0 = single_loop_of(ref.subscripts[0]);
      int& slot = dim0_loop[static_cast<std::size_t>(ref.array)];
      if (slot == -1) {
        slot = l0;
      } else if (slot != l0) {
        consistent = false;
      }
    }
  }

  const auto reshapeable = [&](ir::ArrayId a) {
    return options.layout_aware && consistent &&
           confined[static_cast<std::size_t>(a)];
  };

  // --- choose tile sizes ---------------------------------------------------
  Bytes elem = 8;
  bool any_unreshaped = false;
  Bytes row_bytes_sum = 0;  // bytes touched per unit of the outer tiled loop
  std::vector<bool> seen(program.arrays.size(), false);
  for (const ir::Statement& stmt : nest.body) {
    for (const ir::ArrayRef& ref : stmt.refs) {
      const ir::Array& arr = program.array(ref.array);
      elem = std::max(elem, arr.element_size);
      if (seen[static_cast<std::size_t>(ref.array)]) continue;
      seen[static_cast<std::size_t>(ref.array)] = true;
      if (!reshapeable(ref.array)) {
        any_unreshaped = true;
        const int dim_of_outer =
            dim0_loop[static_cast<std::size_t>(ref.array)] == k0 ? 0 : 1;
        row_bytes_sum +=
            arr.dim_stride(dim_of_outer) * arr.element_size;
      }
    }
  }

  const std::int64_t n1 =
      nest.loops[static_cast<std::size_t>(k0)].trip_count();
  const std::int64_t n2 =
      nest.loops[static_cast<std::size_t>(k0) + 1].trip_count();
  // Without the blocked reshape, a tile of T1 outer-loop values pins T1
  // "rows" of every un-reshaped array (each spanning whole cache blocks);
  // bound T1 so a tile row-band fits in half the buffer cache, or tiling
  // degrades into block re-fetching.
  std::int64_t t1_cap = n1;
  if (any_unreshaped && row_bytes_sum > 0 && options.access.cache_bytes > 0) {
    t1_cap = std::max<std::int64_t>(
        1, options.access.cache_bytes / (2 * row_bytes_sum));
  }
  const auto [t1, t2] =
      choose_tiles(n1, n2, elem, options.tile_bytes, t1_cap);
  result.tile_rows = t1;
  result.tile_cols = t2;

  // --- tile every family member and rewrite its references -----------------
  result.tiled_nest = target;
  result.applied = true;
  const std::int64_t nt1 = n1 / t1;
  const std::int64_t nt2 = n2 / t2;
  int reshaped = 0;
  std::vector<bool> done(program.arrays.size(), false);

  for (int ni = 0; ni < static_cast<int>(program.nests.size()); ++ni) {
    if (!in_family[static_cast<std::size_t>(ni)]) continue;
    ir::LoopNest tiled = ir::tile(
        program.nests[static_cast<std::size_t>(ni)], {t1, t2}, k0);
    const std::size_t new_depth = tiled.loops.size();  // >= 4

    if (options.layout_aware) {
      for (ir::Statement& stmt : tiled.body) {
        for (ir::ArrayRef& ref : stmt.refs) {
          const auto a = static_cast<std::size_t>(ref.array);
          if (!reshapeable(ref.array)) continue;
          if (!done[a]) {
            done[a] = true;
            ir::Array& arr = result.program.array(ref.array);
            // An array is "conforming" when the innermost tiled loop already
            // walks its contiguous dimension; otherwise the blocking
            // permutes the dimensions into access order — the paper's
            // row-major -> column-major transformation.
            const bool permuted =
                (dim0_loop[a] == k0) !=
                (arr.layout == ir::StorageLayout::kRowMajor);
            arr.extents = {nt1, nt2, t1, t2};
            arr.layout = ir::StorageLayout::kRowMajor;
            arr.name += ".blk";
            if (permuted) result.permuted_arrays.push_back(ref.array);
            result.reshaped_arrays.push_back(ref.array);
            ++reshaped;
            // Tile-to-disk mapping: stripe size = per-tile footprint DS(i),
            // striped round-robin over all disks from disk 0, so tile k of
            // every reshaped array lands on disk k mod total_disks.
            layout::Striping s;
            s.starting_disk = 0;
            s.stripe_factor = options.total_disks;
            s.stripe_size = t1 * t2 * arr.element_size;
            result.striping[a] = s;
          }
          // Logical access order: [ii][jj][i][j].
          const auto v = [&](int k) {
            return ir::affine_var(static_cast<std::size_t>(k), new_depth);
          };
          ref.subscripts = {v(k0), v(k0 + 1), v(k0 + 2), v(k0 + 3)};
        }
      }
    }
    result.program.nests[static_cast<std::size_t>(ni)] = std::move(tiled);
  }

  if (!options.layout_aware) {
    result.note = "tiled nest '" + nest.name + "' (no layout change)";
  } else if (reshaped == 0) {
    result.note = "tiled nest '" + nest.name +
                  "' but no array was private to it; tile-to-disk mapping "
                  "not applicable";
  } else {
    result.note = "tiled nest '" + nest.name + "', reshaped " +
                  std::to_string(reshaped) + " array(s), " +
                  std::to_string(result.permuted_arrays.size()) +
                  " required an access-order permutation";
  }
  result.program.validate();
  return result;
}

}  // namespace

TilingResult apply_loop_tiling(const ir::Program& program,
                               const TilingOptions& options) {
  if (!options.all_nests) return apply_once(program, options);

  // Multi-nest extension: chain single-nest applications in decreasing
  // disk-energy order until no applicable family remains.
  TilingResult acc;
  acc.program = program;
  acc.striping.assign(program.arrays.size(), options.base_striping);
  std::vector<bool> done(program.nests.size(), false);
  bool first = true;

  for (;;) {
    // Rank the not-yet-tiled nests of the current program.
    layout::Striping ranking_striping = options.base_striping;
    const layout::LayoutTable ranking_layout(acc.program, ranking_striping,
                                             options.total_disks);
    const std::vector<double> energy =
        disk_energy_per_nest(acc.program, ranking_layout, options.disk_params,
                             options.access, options.total_disks);
    std::vector<int> order(acc.program.nests.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) {
                return energy[static_cast<std::size_t>(a)] >
                       energy[static_cast<std::size_t>(b)];
              });

    bool applied_any = false;
    for (const int idx : order) {
      if (done[static_cast<std::size_t>(idx)]) continue;
      TilingOptions once = options;
      once.all_nests = false;
      once.nest_override = idx;
      TilingResult r = apply_once(acc.program, once);
      if (!r.applied) {
        done[static_cast<std::size_t>(idx)] = true;
        continue;
      }
      // Mark every nest the family application transformed.
      for (std::size_t ni = 0; ni < acc.program.nests.size(); ++ni) {
        if (r.program.nests[ni].depth() != acc.program.nests[ni].depth()) {
          done[ni] = true;
        }
      }
      done[static_cast<std::size_t>(idx)] = true;
      // Merge striping for the arrays this application reshaped.
      for (const ir::ArrayId a : r.reshaped_arrays) {
        acc.striping[static_cast<std::size_t>(a)] =
            r.striping[static_cast<std::size_t>(a)];
      }
      acc.reshaped_arrays.insert(acc.reshaped_arrays.end(),
                                 r.reshaped_arrays.begin(),
                                 r.reshaped_arrays.end());
      acc.permuted_arrays.insert(acc.permuted_arrays.end(),
                                 r.permuted_arrays.begin(),
                                 r.permuted_arrays.end());
      if (first) {
        acc.tiled_nest = idx;
        acc.tile_rows = r.tile_rows;
        acc.tile_cols = r.tile_cols;
        first = false;
      }
      acc.program = std::move(r.program);
      acc.applied = true;
      acc.note += (acc.note.empty() ? "" : "; ") + r.note;
      applied_any = true;
      break;  // re-rank on the transformed program
    }
    if (!applied_any) break;
  }
  if (!acc.applied) acc.note = "no tilable nest";
  acc.program.validate();
  return acc;
}

}  // namespace sdpm::core
