#include "core/pdc.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "layout/layout_table.h"
#include "util/error.h"

namespace sdpm::core {

PdcResult apply_pdc(const ir::Program& program, const PdcOptions& options) {
  SDPM_REQUIRE(options.total_disks >= 1, "need at least one disk");
  SDPM_REQUIRE(options.load_headroom >= 1.0,
               "load headroom below 1 is unsatisfiable");
  PdcResult result;

  // --- popularity profile ---------------------------------------------------
  layout::Striping profile_striping = options.base_striping;
  profile_striping.stripe_factor =
      std::min(profile_striping.stripe_factor, options.total_disks);
  profile_striping.starting_disk %= options.total_disks;
  const layout::LayoutTable profile_layout(program, profile_striping,
                                           options.total_disks);
  std::vector<double> requests(program.arrays.size(), 0.0);
  double total_requests = 0;
  const auto misses =
      trace::collect_misses(program, profile_layout, options.access);
  for (const trace::MissRecord& miss : *misses) {
    requests[static_cast<std::size_t>(miss.array)] += 1.0;
    total_requests += 1.0;
  }

  result.popularity_order.resize(program.arrays.size());
  std::iota(result.popularity_order.begin(), result.popularity_order.end(),
            0);
  std::stable_sort(result.popularity_order.begin(),
                   result.popularity_order.end(),
                   [&](ir::ArrayId a, ir::ArrayId b) {
                     return requests[static_cast<std::size_t>(a)] >
                            requests[static_cast<std::size_t>(b)];
                   });

  // --- concentration ---------------------------------------------------------
  // Fill disks in order; an array spreads over just enough consecutive
  // disks that each stays under the per-disk load cap.
  const double cap = total_requests > 0
                         ? options.load_headroom * total_requests /
                               static_cast<double>(options.total_disks)
                         : 1.0;
  result.striping.assign(program.arrays.size(), options.base_striping);
  result.projected_load.assign(
      static_cast<std::size_t>(options.total_disks), 0.0);

  int cursor = 0;
  for (const ir::ArrayId a : result.popularity_order) {
    const double load = requests[static_cast<std::size_t>(a)];
    // Advance past full disks.
    while (cursor < options.total_disks - 1 &&
           result.projected_load[static_cast<std::size_t>(cursor)] + 1e-9 >=
               cap) {
      ++cursor;
    }
    // Spread over the fewest disks that keep each under the cap (always at
    // least one; never beyond the array's stripe-count worth of disks).
    const double room =
        std::max(cap - result.projected_load[static_cast<std::size_t>(cursor)],
                 cap * 0.1);
    int span = static_cast<int>(std::ceil(load / room));
    span = std::clamp(span, 1, options.total_disks - cursor);

    layout::Striping s = options.base_striping;
    s.starting_disk = cursor;
    s.stripe_factor = span;
    result.striping[static_cast<std::size_t>(a)] = s;
    for (int d = cursor; d < cursor + span; ++d) {
      result.projected_load[static_cast<std::size_t>(d)] +=
          load / static_cast<double>(span);
    }
  }

  for (double load : result.projected_load) {
    if (load == 0.0) ++result.unused_disks;
  }
  return result;
}

}  // namespace sdpm::core
