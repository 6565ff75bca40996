#include "api/session.h"

#include <chrono>
#include <utility>

#include "analysis/bounds.h"
#include "experiments/sweep.h"
#include "experiments/trace_cache.h"
#include "obs/metrics.h"
#include "obs/sim_metrics.h"
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

}  // namespace

Session::Session(SessionOptions options) : options_(options) {
  if (!options_.use_cache) {
    experiments::TraceCache::global().set_enabled(false);
  }
}

JobResult Session::run(const JobSpec& spec, const RunHooks& hooks) {
  experiments::ExperimentConfig config = spec.to_config();
  const std::vector<experiments::Scheme> schemes = spec.resolved_schemes();

  if (hooks.replay_tracer != nullptr) {
    experiments::Scheme traced;
    if (hooks.trace_scheme.has_value()) {
      traced = *hooks.trace_scheme;
    } else {
      SDPM_REQUIRE(schemes.size() == 1,
                   "a replay tracer needs a single scheme (a multi-scheme "
                   "run would interleave unrelated replays)");
      traced = schemes.front();
    }
    SDPM_REQUIRE(!is_oracle(traced),
                 std::string(experiments::to_string(traced)) +
                     " is an analytic oracle with no replay to trace");
    config.tracer = hooks.replay_tracer;
    config.trace_scheme = traced;
  }

  const auto started = std::chrono::steady_clock::now();
  const workloads::Benchmark bench =
      workloads::make_benchmark(spec.benchmark);
  experiments::Runner runner(bench, config);
  JobResult result = result_shell(spec);
  if (spec.schemes.empty()) {
    // All seven: fan over the pool exactly like a sweep cell would.
    for (const experiments::SchemeResult& r : runner.run_all()) {
      result.schemes.push_back(outcome_from(r));
    }
  } else {
    for (const experiments::Scheme scheme : schemes) {
      result.schemes.push_back(outcome_from(runner.run(scheme)));
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  if (hooks.record_base_metrics) {
    obs::record_report_metrics(obs::MetricsRegistry::global(),
                               runner.base_report());
  }
  obs::MetricsRegistry::global().add("api.jobs");
  return result;
}

std::vector<JobResult> Session::run_batch(const std::vector<JobSpec>& specs) {
  std::vector<experiments::SweepCell> cells;
  cells.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    experiments::SweepCell cell;
    cell.label = spec.display_label();
    cell.benchmark = workloads::make_benchmark(spec.benchmark);
    cell.config = spec.to_config();
    // An empty scheme list means "all seven" in both vocabularies, so the
    // resolved list only needs spelling out when explicit.
    for (const std::string& name : spec.schemes) {
      cell.schemes.push_back(*scheme_from_name(name));
    }
    cells.push_back(std::move(cell));
  }

  const std::vector<experiments::SweepCellResult> sweep =
      experiments::SweepEngine(options_.jobs).run(cells);

  std::vector<JobResult> results;
  results.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobResult result = result_shell(specs[i]);
    for (const experiments::SchemeResult& r : sweep[i].results) {
      result.schemes.push_back(outcome_from(r));
    }
    result.wall_ms = sweep[i].wall_ms;
    results.push_back(std::move(result));
  }
  obs::MetricsRegistry::global().add("api.jobs",
                                     static_cast<std::int64_t>(specs.size()));
  obs::MetricsRegistry::global().add("api.batches");
  return results;
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
