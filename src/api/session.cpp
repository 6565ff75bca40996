#include "api/session.h"

#include <utility>

#include "analysis/bounds.h"
#include "experiments/sweep.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::api {
namespace {

JobResult result_shell(const JobSpec& spec) {
  JobResult result;
  result.label = spec.display_label();
  result.benchmark = spec.benchmark;
  result.transform = spec.transform;
  // A schema-v1 spec cannot name a device; it ran on the historical default.
  // The note is structured (stable "deprecation:" prefix) so clients can
  // surface or filter it without string-matching prose.
  if (spec.version < 2 && spec.device.empty() &&
      spec.device_inline_json.empty()) {
    result.notes.push_back(
        "deprecation: schema v1 job spec; ran on the default device "
        "'ultrastar_36z15' — migrate to schema v2 and set \"device\"");
  }
  return result;
}

bool is_oracle(experiments::Scheme scheme) {
  return scheme == experiments::Scheme::kItpm ||
         scheme == experiments::Scheme::kIdrpm;
}

/// The sweep cell that evaluates `spec` with `hooks` attached.
experiments::SweepCell cell_for(const JobSpec& spec, const RunHooks& hooks) {
  experiments::SweepCell cell;
  cell.label = spec.display_label();
  cell.benchmark = workloads::make_benchmark(spec.benchmark);
  cell.config = spec.to_config();
  // An empty scheme list means "all seven" in both vocabularies, so the
  // resolved list only needs spelling out when explicit.
  if (!spec.schemes.empty()) cell.schemes = spec.resolved_schemes();
  cell.record_base_metrics = hooks.record_base_metrics;
  if (hooks.replay_tracer != nullptr) {
    experiments::Scheme traced;
    if (hooks.trace_scheme.has_value()) {
      traced = *hooks.trace_scheme;
    } else {
      SDPM_REQUIRE(cell.schemes.size() == 1,
                   "a replay tracer needs a single scheme (a multi-scheme "
                   "run would interleave unrelated replays)");
      traced = cell.schemes.front();
    }
    SDPM_REQUIRE(!is_oracle(traced),
                 std::string(experiments::to_string(traced)) +
                     " is an analytic oracle with no replay to trace");
    cell.config.tracer = hooks.replay_tracer;
    cell.config.trace_scheme = traced;
  }
  return cell;
}

}  // namespace

const JobResult& JobSlot::value() const {
  if (error) std::rethrow_exception(error);
  return *result;
}

std::string JobSlot::error_message() const {
  if (!error) return {};
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

Session::Session(SessionOptions options) : options_(options) {}

JobResult Session::run(const JobSpec& spec, const RunHooks& hooks) {
  return run_batch({spec}, hooks).front().value();
}

std::vector<JobSlot> Session::run_batch(const std::vector<JobSpec>& specs,
                                        const RunHooks& hooks) {
  SDPM_REQUIRE(hooks.replay_tracer == nullptr || specs.size() <= 1,
               "a replay tracer needs a one-job dispatch (two jobs' replays "
               "would interleave)");
  // A spec that cannot become a cell fails its own slot and stays out of
  // the sweep; `job_of` maps each cell back to its job.
  std::vector<JobSlot> slots(specs.size());
  std::vector<experiments::SweepCell> cells;
  std::vector<std::size_t> job_of;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      cells.push_back(cell_for(specs[i], hooks));
      job_of.push_back(i);
    } catch (...) {
      slots[i].error = std::current_exception();
    }
  }

  const std::vector<experiments::SweepCellResult> sweep =
      experiments::SweepEngine(options_.jobs).run(cells);
  for (std::size_t c = 0; c < sweep.size(); ++c) {
    JobSlot& slot = slots[job_of[c]];
    if (sweep[c].error) {
      slot.error = sweep[c].error;
      continue;
    }
    JobResult result = result_shell(specs[job_of[c]]);
    for (const experiments::SchemeResult& r : sweep[c].results) {
      result.schemes.push_back(outcome_from(r));
    }
    result.wall_ms = sweep[c].wall_ms;
    slot.result = std::move(result);
  }
  obs::MetricsRegistry::global().add("api.jobs",
                                     static_cast<std::int64_t>(specs.size()));
  obs::MetricsRegistry::global().add("api.batches");
  return slots;
}

namespace {

/// Rebuild the exact compiler output analyze()/repair() inspect.
struct AnalyzedSchedule {
  core::ScheduleResult result;
  std::vector<layout::Striping> striping;
};

AnalyzedSchedule compiled_schedule(
    const experiments::ExperimentConfig& config,
    const workloads::Benchmark& bench, core::PowerMode mode,
    const std::optional<analysis::Mutation>& mutation) {
  const core::CompileOutput out =
      core::compile(bench.program, config.transform, mode,
                    experiments::compiler_options(config));
  AnalyzedSchedule sched{
      core::ScheduleResult{out.program, out.plans, out.calls_inserted},
      out.striping};
  if (mutation.has_value()) {
    analysis::apply_mutation(*mutation, sched.result, sched.striping,
                             config.disk);
  }
  return sched;
}

/// Attach the certified bounds for the run the simulator would measure
/// (actual-noise trace).  A program the access model rejects analyzes to
/// SDPM-E090 and simply carries no certificate.
void attach_certificate(analysis::AnalysisReport& report,
                        const core::ScheduleResult& result,
                        const layout::LayoutTable& table,
                        const experiments::ExperimentConfig& config) {
  try {
    trace::GeneratorOptions gen = config.gen;
    gen.noise = config.actual_noise;
    report.certificate =
        analysis::certify_schedule(result, table, config.disk, gen);
  } catch (const Error&) {
    report.certificate.reset();
  }
}

}  // namespace

analysis::AnalysisReport Session::analyze(
    const JobSpec& spec, core::PowerMode mode,
    const std::optional<analysis::Mutation>& mutation) const {
  const experiments::ExperimentConfig config = spec.to_config();
  const workloads::Benchmark bench =
      workloads::make_benchmark(spec.benchmark);

  // Reproduce the compiler pipeline, then analyze its exact output.
  AnalyzedSchedule sched = compiled_schedule(config, bench, mode, mutation);
  const layout::LayoutTable table(sched.result.program, sched.striping,
                                  config.total_disks);
  analysis::AnalyzeOptions opts;
  opts.access = config.gen;
  opts.transform = config.transform;
  analysis::AnalysisReport report =
      analysis::analyze(sched.result, table, config.disk, opts);
  attach_certificate(report, sched.result, table, config);
  return report;
}

analysis::RepairOutcome Session::repair(
    const JobSpec& spec, core::PowerMode mode,
    const std::optional<analysis::Mutation>& mutation) const {
  const experiments::ExperimentConfig config = spec.to_config();
  const workloads::Benchmark bench =
      workloads::make_benchmark(spec.benchmark);

  AnalyzedSchedule sched = compiled_schedule(config, bench, mode, mutation);
  analysis::AnalyzeOptions opts;
  opts.access = config.gen;
  opts.transform = config.transform;
  analysis::RepairOutcome outcome = analysis::repair_schedule(
      std::move(sched.result), std::move(sched.striping), config.total_disks,
      config.disk, opts);
  const layout::LayoutTable table(outcome.result.program, outcome.striping,
                                  config.total_disks);
  attach_certificate(outcome.final_report, outcome.result, table, config);
  return outcome;
}

}  // namespace sdpm::api
