// sdpm::api::Session — the single public entry point to the simulation
// stack.
//
// A Session owns the execution resources a caller needs to evaluate
// JobSpecs: the worker count, the process-wide TraceCache policy, and the
// optional observability hooks.  Every tool in the repo — sdpm_cli
// run/bench/analyze, the figure benches, and the sdpm_serviced daemon —
// goes through this facade; Runner, SweepEngine, SimOptions and friends
// are implementation details behind it.
//
// Determinism contract: run(), run_batch() and a serial per-scheme Runner
// evaluation all produce bit-identical JobResults for the same spec —
// randomness is keyed by the seeds carried in the spec, and parallel
// evaluation writes into position-indexed slots (see SweepEngine).
#pragma once

#include <optional>
#include <vector>

#include "analysis/mutate.h"
#include "analysis/registry.h"
#include "analysis/repair.h"
#include "api/job_result.h"
#include "api/job_spec.h"

namespace sdpm::obs {
class EventTracer;
}

namespace sdpm::api {

struct SessionOptions {
  /// Worker threads for batched evaluation; 0 = default_jobs()
  /// (SDPM_JOBS / --jobs / hardware concurrency).
  unsigned jobs = 0;
  /// When false, disables the process-wide TraceCache, and with it the
  /// access-walk memo, at construction (never re-enables it: the cache is
  /// process state, and a Session only opts out, it does not override
  /// another component's opt-out).
  bool use_cache = true;
};

/// Per-run observability hooks for run(): attach `replay_tracer` to the
/// replay of `trace_scheme` (required to be a single non-oracle scheme by
/// the same rule the CLI enforces; validation throws otherwise).
struct RunHooks {
  obs::EventTracer* replay_tracer = nullptr;
  std::optional<experiments::Scheme> trace_scheme;
  /// Fold the shared Base report's distributions (idle gaps, response
  /// times) into the global metrics registry after the run — what
  /// `sdpm_cli run --format metrics` snapshots.
  bool record_base_metrics = false;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Evaluate one job: every resolved scheme, in the spec's order.
  JobResult run(const JobSpec& spec) { return run(spec, RunHooks{}); }
  JobResult run(const JobSpec& spec, const RunHooks& hooks);

  /// Evaluate a batch as ONE sweep dispatch: all (job, scheme) tasks fan
  /// out over one thread pool, so a slow job cannot serialize the tail and
  /// repeated (program, layout, options) cells hit the shared TraceCache.
  /// Results are ordered exactly as `specs`.
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs);

  /// Statically analyze the compiled power-call schedule of `spec` for
  /// `mode` (no simulation).  `mutation` seeds a known bug class first —
  /// the analyzer-validation path of `sdpm_cli analyze --mutate`.  The
  /// report carries the certified energy/delay bounds of the schedule
  /// (analysis/bounds.h) whenever the access model accepts the program.
  analysis::AnalysisReport analyze(
      const JobSpec& spec, core::PowerMode mode,
      const std::optional<analysis::Mutation>& mutation = std::nullopt) const;

  /// Analyze and auto-repair the schedule of `spec` to a fixed point
  /// (`sdpm_cli analyze --fix`): apply the passes' SDPM-F### fix-its,
  /// re-analyze, repeat.  The outcome carries the repaired schedule, the
  /// striping it must be laid out with, and the final report (with
  /// certificate, like analyze()).
  analysis::RepairOutcome repair(
      const JobSpec& spec, core::PowerMode mode,
      const std::optional<analysis::Mutation>& mutation = std::nullopt) const;

  const SessionOptions& options() const { return options_; }

 private:
  SessionOptions options_;
};

}  // namespace sdpm::api
