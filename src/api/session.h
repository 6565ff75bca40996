// sdpm::api::Session — the single public entry point to the simulation
// stack.
//
// A Session owns the execution resources a caller needs to evaluate
// JobSpecs: the worker count, the process-wide TraceCache policy, and the
// optional observability hooks.  sdpm_cli run/bench/analyze, the JobSpec
// benches and the sdpm_serviced daemon evaluate jobs through this facade.
// run() and run_batch() are one dispatch: every job becomes one
// SweepEngine cell, and each job's result or error lands in its own slot.
//
// Determinism contract: run(), run_batch() and a serial per-scheme Runner
// evaluation all produce bit-identical JobResults for the same spec —
// randomness is keyed by the seeds carried in the spec, and parallel
// evaluation writes into position-indexed slots (see SweepEngine).
#pragma once

#include <exception>
#include <optional>
#include <string>
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
};

/// Observability hooks for one dispatch: attach `replay_tracer` to the
/// replay of `trace_scheme` (required to be a single non-oracle scheme by
/// the same rule the CLI enforces; the job fails otherwise).  A replay
/// tracer needs a one-job dispatch, so that two jobs' replay events never
/// interleave.
struct RunHooks {
  obs::EventTracer* replay_tracer = nullptr;
  std::optional<experiments::Scheme> trace_scheme;
  /// Fold the shared Base report's distributions (idle gaps, response
  /// times) into the global metrics registry after the run — what
  /// `sdpm_cli run --format metrics` snapshots.
  bool record_base_metrics = false;
};

/// One job's slot of a dispatch: its result, or the located error its
/// evaluation threw.  Exactly one of the two is set.
struct JobSlot {
  std::optional<JobResult> result;
  std::exception_ptr error;

  /// The result; rethrows the job's own error when it failed.
  const JobResult& value() const;
  /// The error's message; empty when the job completed.
  std::string error_message() const;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Evaluate one job: every resolved scheme, in the spec's order.  A
  /// one-job run_batch() that throws the job's error.
  JobResult run(const JobSpec& spec) { return run(spec, RunHooks{}); }
  JobResult run(const JobSpec& spec, const RunHooks& hooks);

  /// Evaluate a batch as ONE sweep dispatch: all (job, scheme) tasks fan
  /// out over one pool of `jobs` workers, so a slow job cannot serialize
  /// the tail and repeated (program, layout, options) cells hit the shared
  /// TraceCache.  Slots are ordered exactly as `specs`; a job that throws
  /// fails only its own slot.  Throws only for a replay tracer attached to
  /// more than one job.
  std::vector<JobSlot> run_batch(const std::vector<JobSpec>& specs,
                                 const RunHooks& hooks = {});

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
