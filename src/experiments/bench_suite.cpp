#include "experiments/bench_suite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "layout/layout_table.h"
#include "obs/tracer.h"
#include "policy/base.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One replay of `trace` under a fresh BasePolicy; returns total energy
/// (the determinism check pins it across reps).
double replay_once(const trace::Trace& trace,
                   const disk::DiskParameters& params,
                   const sim::SimOptions& options) {
  policy::BasePolicy policy;
  return sim::simulate(trace, params, policy, options).total_energy;
}

/// One timed round: `reps` replays, per-replay time in ms.
double time_round(const trace::Trace& trace,
                  const disk::DiskParameters& params,
                  const sim::SimOptions& options, int reps,
                  double expected_energy) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    const double energy = replay_once(trace, params, options);
    SDPM_REQUIRE(energy == expected_energy,
                 "bench replay diverged across repetitions");
  }
  return ms_since(t0) / reps;
}

}  // namespace

SimulatorSuiteResult run_simulator_suite() {
  const auto suite_start = Clock::now();

  // Single disk: no striping fan-out, no inter-disk idle gaps — every
  // request flows through the replay hot loop back to back.
  const workloads::Benchmark bench = workloads::make_swim();
  const layout::LayoutTable table(bench.program,
                                  layout::Striping{0, 1, kib(64)}, 1);
  trace::TraceGenerator generator(bench.program, table);
  const trace::Trace trace = generator.generate();
  const disk::DiskParameters params = disk::DiskParameters::ultrastar_36z15();

  const sim::SimOptions untraced;
  obs::EventTracer tracer;  // no sinks: resolves to the null fast path
  sim::SimOptions traced;
  traced.tracer = &tracer;

  // Warm up until the frequency governor has settled (a handful of
  // replays is not enough on a cold core) and take the reference energy.
  const double expected = replay_once(trace, params, untraced);
  const auto warm_start = Clock::now();
  double probe_ms = std::numeric_limits<double>::infinity();
  while (ms_since(warm_start) < 150.0) {
    const auto t0 = Clock::now();
    replay_once(trace, params, untraced);
    probe_ms = std::min(probe_ms, std::max(ms_since(t0), 1e-3));
  }

  // Size a round to ~50 ms so the steady_clock quantization and loop
  // bookkeeping vanish into the noise floor.
  const int reps = static_cast<int>(
      std::clamp(std::ceil(50.0 / probe_ms), 1.0, 2000.0));
  constexpr int kRounds = 7;

  // Interleave the two variants round by round: slow drift (thermal,
  // scheduler) hits both equally, so the overhead ratio stays honest.
  double base_ms = std::numeric_limits<double>::infinity();
  double traced_ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    base_ms = std::min(base_ms,
                       time_round(trace, params, untraced, reps, expected));
    traced_ms = std::min(
        traced_ms, time_round(trace, params, traced, reps, expected));
  }

  SimulatorSuiteResult result;
  result.trace_requests = static_cast<std::int64_t>(trace.requests.size());
  result.reps_per_round = reps;
  result.base_ms_per_replay = base_ms;
  result.traced_ms_per_replay = traced_ms;
  result.requests_per_sec = static_cast<double>(result.trace_requests) *
                            1000.0 / result.base_ms_per_replay;
  result.null_tracer_overhead_pct =
      (result.traced_ms_per_replay / result.base_ms_per_replay - 1.0) *
      100.0;
  result.wall_ms = ms_since(suite_start);
  return result;
}

BenchSnapshot make_simulator_snapshot(const SimulatorSuiteResult& run) {
  BenchSnapshot snap;
  snap.suite = "simulator";
  snap.jobs = 1;  // the suite is deliberately single-threaded
  snap.calib_score = calibration_score();
  snap.wall_ms = run.wall_ms;
  snap.requests_simulated =
      run.trace_requests * run.reps_per_round;  // per timed round
  snap.requests_per_sec = run.requests_per_sec;
  snap.null_tracer_overhead_pct = run.null_tracer_overhead_pct;
  return snap;
}

BenchSnapshot snapshot_simulator_suite() {
  return make_simulator_snapshot(run_simulator_suite());
}

double sim_requests_per_sec(const obs::MetricsRegistry::Snapshot& before,
                            const obs::MetricsRegistry::Snapshot& after) {
  const std::int64_t wall_us =
      after.counter("sim.wall_us") - before.counter("sim.wall_us");
  if (wall_us <= 0) return 0.0;
  return static_cast<double>(after.counter("sim.requests") -
                             before.counter("sim.requests")) *
         1e6 / static_cast<double>(wall_us);
}

BenchSnapshot make_sweep_snapshot(const obs::MetricsRegistry::Snapshot& before,
                                  const obs::MetricsRegistry::Snapshot& after,
                                  double wall_ms, unsigned jobs) {
  BenchSnapshot snap;
  snap.suite = "sweep";
  snap.jobs = jobs;
  snap.calib_score = calibration_score();
  snap.wall_ms = wall_ms;
  snap.requests_simulated =
      after.counter("sim.requests") - before.counter("sim.requests");
  snap.requests_per_sec = sim_requests_per_sec(before, after);
  snap.cells_completed = after.counter("sweep.cells_completed") -
                         before.counter("sweep.cells_completed");
  return snap;
}

}  // namespace sdpm::experiments
