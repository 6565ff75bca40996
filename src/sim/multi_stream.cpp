#include "sim/multi_stream.h"

#include <algorithm>

#include "sim/replay.h"
#include "util/error.h"

namespace sdpm::sim {

MultiStreamReport simulate_streams(std::span<const trace::Trace> traces,
                                   const disk::DiskParameters& params,
                                   PowerPolicy& policy,
                                   std::span<const std::string> names,
                                   FaultConfig faults) {
  SDPM_REQUIRE(!traces.empty(), "need at least one stream");
  const int disks = traces.front().total_disks;
  SDPM_REQUIRE(std::all_of(traces.begin(), traces.end(),
                           [disks](const trace::Trace& t) {
                             return t.total_disks == disks;
                           }),
               "all streams must share the disk array");
  faults.validate();
  FaultModel fault_model(faults);
  // Every disk report carries its busy periods.
  const SimOptions options{.capture_busy_periods = true};

  ReplayContext ctx;
  ctx.params = &params;
  ctx.options = &options;
  ctx.faults = faults.enabled() ? &fault_model : nullptr;
  return detail::replay_streams<PowerPolicy>(policy, ctx, traces, names);
}

}  // namespace sdpm::sim
