// Parallel sweep engine: fan independent (benchmark, scheme, config)
// cells over a thread pool.
//
// A sweep is a list of cells; each cell is one Runner evaluating a set of
// schemes.  The engine flattens the sweep into (cell, scheme) tasks so a
// slow cell cannot serialize the tail of the run, and writes every result
// into a pre-sized slot indexed by (cell, scheme) position — results are
// bit-identical to a serial evaluation regardless of completion order or
// worker count, because
//   - all randomness is keyed by explicit seeds carried in each cell's
//     ExperimentConfig (no shared RNG state), and
//   - cross-scheme shared state inside a Runner (the Base run, memoized
//     measured timelines, cached traces) is computed once under a lock and
//     is a pure function of the cell's configuration.
// A task that throws surfaces as an exception from run() after the pool
// drains (see ThreadPool::wait_idle).
#pragma once

#include <string>
#include <vector>

#include "experiments/runner.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {

/// One (benchmark, configuration) cell of a sweep, plus the schemes to
/// evaluate in it.  An empty scheme list means all seven.
struct SweepCell {
  std::string label;
  workloads::Benchmark benchmark;
  ExperimentConfig config;
  std::vector<Scheme> schemes;
};

/// Results of one cell, in the cell's scheme order.
struct SweepCellResult {
  std::string label;
  std::vector<SchemeResult> results;
  /// Cumulative task wall time spent on this cell (compile + Base + all
  /// schemes), in milliseconds.  With N workers the elapsed wall clock is
  /// roughly the sum over cells divided by N.
  double wall_ms = 0;
};

class SweepEngine {
 public:
  /// `jobs == 0` uses default_jobs() (SDPM_JOBS / --jobs / hardware).
  explicit SweepEngine(unsigned jobs = 0);

  /// Evaluate every cell; results are ordered exactly as `cells`, with
  /// each cell's results in its scheme order.  Each cell also counts into
  /// the metrics registry ("sweep.cells_completed", and its wall time into
  /// the "sweep.cell_wall_ms" histogram).
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
