// Sweep engine: the one evaluation path.  api::Session::run and run_batch
// (and through them the daemon) and the sweep benches fan (benchmark,
// configuration) cells over a thread pool here.  A sweep is a list of
// cells; each cell is one Runner evaluating a set of schemes.  The engine
// flattens the sweep into (cell, scheme) tasks so a slow cell cannot
// serialize the tail of the run, and writes every result into a pre-sized
// slot indexed by (cell, scheme) position — results are bit-identical to a
// serial evaluation regardless of completion order or worker count, because
//   - all randomness is keyed by explicit seeds carried in each cell's
//     ExperimentConfig (no shared RNG state), and
//   - cross-scheme shared state inside a Runner (the Base run, memoized
//     measured timelines, cached traces) is computed once under a lock and
//     is a pure function of the cell's configuration.
// A cell whose evaluation throws (compile, Base run or any of its schemes)
// keeps that located error in its own result slot; every other cell still
// completes, and run() itself does not throw for it.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {

/// One (benchmark, configuration) cell of a sweep, plus the schemes to
/// evaluate in it.  An empty scheme list means all seven.  The config's
/// `tracer`/`trace_scheme` trace one of the cell's replays.
struct SweepCell {
  std::string label;
  workloads::Benchmark benchmark;
  ExperimentConfig config;
  std::vector<Scheme> schemes;
  /// Fold the cell's Base report distributions (idle gaps, response
  /// times) into the global metrics registry once the cell completes —
  /// what `sdpm_cli run --format metrics` snapshots.
  bool record_base_metrics = false;
};

/// Results of one cell, in the cell's scheme order.
struct SweepCellResult {
  std::string label;
  /// Empty when `error` is set.
  std::vector<SchemeResult> results;
  /// Cumulative task wall time spent on this cell (compile + Base + all
  /// schemes), in milliseconds.  With N workers the elapsed wall clock is
  /// roughly the sum over cells divided by N.
  double wall_ms = 0;
  /// The error the cell's evaluation threw (the first in scheme order);
  /// null when every scheme completed.
  std::exception_ptr error;
};

class SweepEngine {
 public:
  /// `jobs == 0` uses default_jobs() (SDPM_JOBS / --jobs / hardware).
  explicit SweepEngine(unsigned jobs = 0);

  /// Evaluate every cell; results are ordered exactly as `cells`, with
  /// each cell's results in its scheme order and a failed cell's error in
  /// its own slot.  Each completed cell also counts into the metrics
  /// registry ("sweep.cells_completed", and its wall time into the
  /// "sweep.cell_wall_ms" histogram).
  std::vector<SweepCellResult> run(const std::vector<SweepCell>& cells);

  unsigned jobs() const { return jobs_; }

 private:
  unsigned jobs_;
};

/// Convenience: one cell per benchmark, all seven schemes, shared config.
std::vector<SweepCell> cells_for_benchmarks(
    const std::vector<workloads::Benchmark>& benchmarks,
    const ExperimentConfig& config);

}  // namespace sdpm::experiments
