// Multiprogrammed (multi-stream) simulation — extension.
//
// The paper evaluates "one benchmark program at a time"; real servers run
// several applications against the same disk array, which is the setting
// the reactive DRPM scheme was originally designed for.  This simulator
// replays several closed-loop traces concurrently: each stream computes,
// blocks on its own requests (issued ahead by their prefetch leads, as in
// the single-trace closed loop), and contends with the other streams for
// the shared disks (FIFO per disk).  Power policies see the merged request
// stream, so reactive schemes adapt to the combined load while
// compiler-directed schedules — planned per program in isolation — reveal
// how much interference their predictions tolerate
// (`bench_ablation_multiprogram`).  The streams run on the replay engine's
// disk array and service step (sim/replay.h), through the generic
// virtual-dispatch hooks; one stream replays bit for bit as `simulate`'s
// closed loop does.
#pragma once

#include <span>
#include <vector>

#include "disk/parameters.h"
#include "sim/faults.h"
#include "sim/policy.h"
#include "sim/report.h"
#include "trace/request.h"

namespace sdpm::sim {

/// Outcome of one application stream.
struct StreamReport {
  std::string name;
  TimeMs completion_ms = 0;  ///< when this stream finished
  TimeMs compute_ms = 0;
  std::int64_t requests = 0;
  RunningStats response_ms;
};

struct MultiStreamReport {
  Joules total_energy = 0;
  TimeMs makespan_ms = 0;  ///< completion of the last stream
  std::vector<StreamReport> streams;
  std::vector<DiskReport> disks;
};

/// Replay `traces` concurrently against one disk array under `policy`.
/// All traces must agree on total_disks.  `names` (optional) labels the
/// streams in the report; `faults` (optional) injects disk misbehavior, the
/// default keeps the replay fault-free.
MultiStreamReport simulate_streams(std::span<const trace::Trace> traces,
                                   const disk::DiskParameters& params,
                                   PowerPolicy& policy,
                                   std::span<const std::string> names = {},
                                   FaultConfig faults = FaultConfig::none());

}  // namespace sdpm::sim
