// The "simulator" benchmark suite behind `sdpm_cli bench --suite
// simulator`: the acceptance workload for the batched replay engine.
//
// The suite replays the swim trace on a single disk under BasePolicy —
// the pure hot-loop configuration (no power transitions, no striping
// fan-out), so its requests/s measures the replay engine itself — and
// then repeats the replay through a sink-less tracer to price the
// observability fast path.  Timing is min-of-rounds: each round replays
// the trace enough times to dominate timer noise, and the best round
// stands (load spikes only ever make a round slower).
#pragma once

#include <cstdint>

#include "experiments/bench_baseline.h"
#include "obs/metrics.h"

namespace sdpm::experiments {

/// Raw measurements from one simulator-suite run.
struct SimulatorSuiteResult {
  std::int64_t trace_requests = 0;  ///< requests per replay
  int reps_per_round = 0;           ///< replays per timed round
  double base_ms_per_replay = 0;    ///< untraced, best round
  double traced_ms_per_replay = 0;  ///< sink-less tracer, best round
  double requests_per_sec = 0;      ///< from base_ms_per_replay
  double null_tracer_overhead_pct = 0;
  double wall_ms = 0;  ///< total suite wall time (all rounds)
};

/// Run the single-disk replay suite.  Deterministic in its results (every
/// replay is checked to produce the same energy); only the timings vary.
SimulatorSuiteResult run_simulator_suite();

/// Package a suite run as a persistable snapshot (including the
/// machine's calibration score).
BenchSnapshot make_simulator_snapshot(const SimulatorSuiteResult& run);

/// run_simulator_suite() + make_simulator_snapshot in one call.
BenchSnapshot snapshot_simulator_suite();

/// Requests replayed per second of simulator wall time between two
/// registry snapshots ("sim.requests" / "sim.wall_us"); 0 when no
/// simulator time elapsed.
double sim_requests_per_sec(const obs::MetricsRegistry::Snapshot& before,
                            const obs::MetricsRegistry::Snapshot& after);

/// Package a sweep run (the figs 5-8 grid sdpm_cli bench dispatches) as a
/// persistable snapshot from the registry snapshots bracketing it.
BenchSnapshot make_sweep_snapshot(const obs::MetricsRegistry::Snapshot& before,
                                  const obs::MetricsRegistry::Snapshot& after,
                                  double wall_ms, unsigned jobs);

}  // namespace sdpm::experiments
