// Persisted performance baselines and the regression comparator.
//
// A BenchSnapshot is the JSON document committed at the repo root
// (BENCH_simulator.json, BENCH_sweep.json, BENCH_service.json) and
// produced fresh by `sdpm_cli bench --suite ... --format json` or
// `bench_service_stress --format json`.  Raw throughput numbers are
// not comparable across machines, so every snapshot also records a
// calibration score — the throughput of a fixed, deterministic CPU-bound
// workload measured in the same process — and the comparator divides
// requests/s by it before applying the tolerance band.  A baseline taken
// on a fast workstation therefore still gates a slow CI runner: both are
// expressed in "simulator requests per calibration unit".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdpm::experiments {

/// One persisted benchmark measurement (schema version 1).
struct BenchSnapshot {
  std::string suite;        ///< "simulator", "sweep" or "service"
  int schema = 1;           ///< bumped on incompatible field changes
  unsigned jobs = 1;        ///< worker threads the suite ran with
  double calib_score = 0;   ///< calibration_score() on the same machine
  double wall_ms = 0;       ///< total suite wall time
  std::int64_t requests_simulated = 0;
  double requests_per_sec = 0;
  /// Simulator suite only: sink-less tracer replay slowdown relative to
  /// the untraced replay, in percent (the DESIGN.md §10 ~2% contract).
  double null_tracer_overhead_pct = 0;
  /// Sweep suite only: grid cells completed.
  std::int64_t cells_completed = 0;
  /// Service suite only (bench_service_stress): concurrent client count
  /// and client-observed latency quantiles.  requests_per_sec doubles as
  /// jobs/s.  Serialized only for the service suite, so the committed
  /// simulator/sweep baselines stay byte-identical.
  std::int64_t clients = 0;
  double e2e_p50_ms = 0;
  double e2e_p99_ms = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;

  /// Multiline deterministic JSON (stable key order, fixed precision).
  std::string to_json() const;
  /// Parse a snapshot; throws sdpm::Error on malformed input, a missing
  /// required field, or an unsupported schema version.
  static BenchSnapshot from_json(std::string_view text);
};

/// Throughput of a fixed deterministic integer+FP workload (units: loop
/// iterations per microsecond, best of several rounds).  Proportional to
/// how fast this machine runs the simulator's instruction mix, so
/// requests_per_sec / calib_score is machine-independent to first order.
double calibration_score();

/// Peak resident set size of this process in KiB (getrusage; 0 when
/// unavailable on the platform).
std::int64_t peak_rss_kib();

/// Outcome of comparing a fresh snapshot against a stored baseline.
struct BenchComparison {
  bool regressed = false;
  double baseline_normalized = 0;  ///< baseline req/s per calibration unit
  double fresh_normalized = 0;     ///< fresh req/s per calibration unit
  double delta_pct = 0;            ///< fresh vs baseline; negative = slower
  double null_tracer_limit_pct = 0;  ///< gate applied (simulator suite)
  double p99_delta_pct = 0;        ///< service suite: normalized e2e p99
  double p99_limit_pct = 0;        ///< gate applied (service suite)
  std::vector<std::string> notes;  ///< human-readable verdict lines
};

/// Compare `fresh` against `baseline` with a symmetric tolerance band of
/// `tolerance_pct` percent on the calibration-normalized throughput.
/// Regression criteria:
///   - normalized throughput dropped by more than tolerance_pct, or
///   - (simulator suite) the null-tracer overhead exceeds
///     2.0 + 0.2 * tolerance_pct percent, or
///   - (service suite) the calibration-normalized e2e p99 latency grew by
///     more than 2 * tolerance_pct percent (tails are noisier than
///     means, so the latency band is twice the throughput band).
/// Suite or schema mismatches throw — comparing a sweep snapshot against
/// a simulator baseline is a usage error, not a regression.
BenchComparison compare_snapshots(const BenchSnapshot& baseline,
                                  const BenchSnapshot& fresh,
                                  double tolerance_pct);

}  // namespace sdpm::experiments
