// analyze_fix: the analyzer path.  Serially, Session::analyze with the
// certificate over the six benchmarks x {CMTPM, CMDRPM}, then Session::repair
// of the short-gap mutation under CMTPM on all six (the only seeded mutation
// with a site in every untransformed benchmark).
//
// The traced run replays each call through the public functions Session
// makes (core::compile, analysis::analyze / certify_schedule / render_json,
// analysis::apply_mutation / repair_schedule) and checks the rendered
// reports equal Session's byte for byte.
#include <optional>

#include "analysis/bounds.h"
#include "analysis/diagnostic.h"
#include "analysis/mutate.h"
#include "analysis/registry.h"
#include "analysis/repair.h"
#include "api/session.h"
#include "common.h"
#include "core/compiler.h"
#include "layout/layout_table.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace perfbench {
namespace {

namespace api = sdpm::api;
namespace analysis = sdpm::analysis;
using sdpm::core::PowerMode;

constexpr unsigned kWorkers = 1;
constexpr analysis::Mutation kMutation = analysis::Mutation::kShortGapSpinDown;

struct Op {
  std::size_t spec = 0;
  PowerMode mode = PowerMode::kTpm;
  bool repair = false;
};

/// What one operation produced: the rendered report plus repair counters.
struct OpResult {
  std::string report_json;
  bool certified = false;
  int errors = 0;
  int diagnostics = 0;
  int rounds = 0;
  int fixits_applied = 0;
  bool converged = true;

  friend bool operator==(const OpResult&, const OpResult&) = default;
};

OpResult from_report(const analysis::AnalysisReport& report,
                     std::string rendered) {
  OpResult r;
  r.report_json = std::move(rendered);
  r.certified = report.certificate.has_value();
  r.errors = report.errors();
  r.diagnostics = static_cast<int>(report.diagnostics.size());
  return r;
}

OpResult run_op(const api::Session& session, const api::JobSpec& spec,
                const Op& op) {
  if (!op.repair) {
    const analysis::AnalysisReport report = session.analyze(spec, op.mode);
    return from_report(report, analysis::render_json(report));
  }
  const analysis::RepairOutcome outcome =
      session.repair(spec, op.mode, kMutation);
  OpResult r = from_report(outcome.final_report,
                           analysis::render_json(outcome.final_report));
  r.rounds = outcome.rounds;
  r.fixits_applied = outcome.fixits_applied;
  r.converged = outcome.converged;
  return r;
}

/// Session::analyze / Session::repair, call by call.
OpResult traced_op(SpanLog& spans, int job, const api::JobSpec& spec,
                   const Op& op) {
  const int root = spans.begin("bench.job", job);
  const sdpm::experiments::ExperimentConfig config =
      spans.time("api.spec_decode", job, [&] { return spec.to_config(); });
  const sdpm::workloads::Benchmark bench = spans.time(
      "workloads.make_benchmark", job,
      [&] { return sdpm::workloads::make_benchmark(spec.benchmark); });

  sdpm::core::CompilerOptions co;
  co.total_disks = config.total_disks;
  co.base_striping = config.striping;
  co.disk_params = config.disk;
  co.access = config.gen;
  co.call_site_granularity = config.call_site_granularity;
  co.preactivate = config.preactivate;
  co.tile_bytes = config.tile_bytes;
  const sdpm::core::CompileOutput out =
      spans.time("core.compile_sched", job, [&] {
        return sdpm::core::compile(bench.program, config.transform, op.mode,
                                   co);
      });
  sdpm::core::ScheduleResult sched{out.program, out.plans, out.calls_inserted};
  std::vector<sdpm::layout::Striping> striping = out.striping;

  analysis::AnalyzeOptions opts;
  opts.access = config.gen;
  opts.transform = config.transform;
  auto certify = [&](analysis::AnalysisReport& report,
                     const sdpm::core::ScheduleResult& result,
                     const sdpm::layout::LayoutTable& table) {
    spans.time("analysis.certify", job, [&] {
      try {
        sdpm::trace::GeneratorOptions gen = config.gen;
        gen.noise = config.actual_noise;
        report.certificate =
            analysis::certify_schedule(result, table, config.disk, gen);
      } catch (const sdpm::Error&) {
        report.certificate.reset();
      }
    });
  };

  OpResult r;
  if (!op.repair) {
    const sdpm::layout::LayoutTable table =
        spans.time("layout.build", job, [&] {
          return sdpm::layout::LayoutTable(sched.program, striping,
                                           config.total_disks);
        });
    analysis::AnalysisReport report = spans.time("analysis.passes", job, [&] {
      return analysis::analyze(sched, table, config.disk, opts);
    });
    certify(report, sched, table);
    r = from_report(report, spans.time("analysis.render", job, [&] {
                      return analysis::render_json(report);
                    }));
  } else {
    spans.time("analysis.mutate", job, [&] {
      analysis::apply_mutation(kMutation, sched, striping, config.disk);
    });
    analysis::RepairOutcome outcome = spans.time("analysis.repair", job, [&] {
      return analysis::repair_schedule(std::move(sched), std::move(striping),
                                       config.total_disks, config.disk, opts);
    });
    const sdpm::layout::LayoutTable table =
        spans.time("layout.build", job, [&] {
          return sdpm::layout::LayoutTable(
              outcome.result.program, outcome.striping, config.total_disks);
        });
    certify(outcome.final_report, outcome.result, table);
    r = from_report(outcome.final_report,
                    spans.time("analysis.render", job, [&] {
                      return analysis::render_json(outcome.final_report);
                    }));
    r.rounds = outcome.rounds;
    r.fixits_applied = outcome.fixits_applied;
    r.converged = outcome.converged;
  }
  spans.end(root);
  return r;
}

struct Rates {
  double analyses_per_s = 0;
  double repairs_per_s = 0;
};

/// Session::analyze and Session::repair calls per second of their ops'
/// latencies `op_ms`.
Rates rates_of(const std::vector<Op>& ops, const std::vector<double>& op_ms) {
  double analyze_ms = 0;
  double repair_ms = 0;
  int analyses = 0;
  int repairs = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].repair ? repair_ms : analyze_ms) += op_ms[i];
    ++(ops[i].repair ? repairs : analyses);
  }
  return {analyses / (analyze_ms / 1e3), repairs / (repair_ms / 1e3)};
}

}  // namespace

void run_analyze_fix(const Args& args, Outcome& out) {
  pin_workers(kWorkers);
  std::vector<api::JobSpec> specs;
  // Set-up builds the benchmark programs the specs name, as a tool does
  // when it resolves its inputs; every Session call builds its own copy.
  std::vector<sdpm::workloads::Benchmark> programs;
  std::optional<api::Session> session;
  SetupTimer setup([&] {
    specs.clear();
    programs.clear();
    const std::vector<std::string> names = sdpm::workloads::benchmark_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      specs.push_back(seeded_spec(names[i], args.seed, i));
      programs.push_back(sdpm::workloads::make_benchmark(names[i]));
    }
    session.emplace(api::SessionOptions{.jobs = kWorkers});
  });
  setup.run();

  std::vector<Op> ops;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops.push_back({i, PowerMode::kTpm, false});
    ops.push_back({i, PowerMode::kDrpm, false});
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops.push_back({i, PowerMode::kTpm, true});
  }
  out.info("workload=analyze_fix seed=" + std::to_string(args.seed) +
           " threads=1 (set_default_jobs, SessionOptions::jobs, malloc arenas)"
           " connections=0 ops_per_pass=" + std::to_string(ops.size()));

  // Warm-up pass: check every result once, then require later passes to
  // reproduce it.
  std::vector<OpResult> expected;
  for (const Op& op : ops) {
    const OpResult r = run_op(*session, specs[op.spec], op);
    const std::string what = specs[op.spec].benchmark + " " +
                             sdpm::core::to_string(op.mode) +
                             (op.repair ? " repair" : " analyze");
    if (!r.certified) out.fail(what + ": report carries no certificate");
    if (op.repair && !r.converged) out.fail(what + ": did not converge");
    if (op.repair && r.errors != 0) {
      out.fail(what + ": repaired schedule re-analyzes with errors");
    }
    expected.push_back(r);
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  auto check = [&](const OpResult& got, std::size_t i, const char* path) {
    ++out.attempted;
    if (!(got == expected[i])) {
      ++out.failed;
      out.fail(std::string(path) + " result of op " + std::to_string(i) +
               " (" + specs[ops[i].spec].benchmark +
               ") differs from the first pass");
    }
  };

  if (!args.trace) {
    // Each pass moves to the next CPU, sets the system up again and runs
    // every op once.  An op's figure is its fastest pass, as in paper_cold.
    std::vector<std::vector<double>> latencies(ops.size());
    int passes = 0;
    do {
      rotate_cpu(passes);
      setup.run();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const OpResult r = run_op(*session, specs[ops[i].spec], ops[i]);
        latencies[i].push_back(ms_between(t0, Clock::now()));
        check(r, i, "Session");
      }
      ++passes;
    } while (Clock::now() < deadline);
    const std::vector<double> op_ms = fastest(latencies);
    const Rates rates = rates_of(ops, op_ms);
    out.info("passes=" + std::to_string(passes) +
             " samples_per_op=" + std::to_string(passes) +
             " analyses_per_s=" + std::to_string(rates.analyses_per_s) +
             " repairs_per_s=" + std::to_string(rates.repairs_per_s));
    out.metric("jobs_per_s",
               static_cast<double>(ops.size()) / (sum(op_ms) / 1e3), "1/s");
    out.metric("e2e_p99_ms", quantile(op_ms, 0.99), "ms");
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced: alternate an untraced pass with a step-by-step traced pass of
  // the same ops; the overhead compares each op's fastest pass of each.
  SpanLog spans;
  std::vector<std::vector<double>> untraced_ms(ops.size());
  std::vector<std::vector<double>> traced_ms(ops.size());
  double traced_wall_ms = 0;
  std::int64_t rounds = 0;
  std::int64_t fixits = 0;
  std::int64_t diagnostics = 0;
  int passes = 0;
  int job = 0;
  do {
    rotate_cpu(passes);
    std::vector<OpResult> untraced;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      untraced.push_back(run_op(*session, specs[ops[i].spec], ops[i]));
      untraced_ms[i].push_back(ms_between(t0, Clock::now()));
    }
    std::vector<OpResult> traced;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      traced.push_back(traced_op(spans, job++, specs[ops[i].spec], ops[i]));
      traced_ms[i].push_back(ms_between(t0, Clock::now()));
      traced_wall_ms += traced_ms[i].back();
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      check(untraced[i], i, "Session");
      check(traced[i], i, "step-by-step");
      rounds += traced[i].rounds;
      fixits += traced[i].fixits_applied;
      diagnostics += traced[i].diagnostics;
    }
    ++passes;
  } while (Clock::now() < deadline);

  const std::map<std::string, double> self = spans.self_ms_by_name();
  double layer_ms = 0;
  for (const auto& [layer, ms] : spans.self_ms_by_layer()) layer_ms += ms;
  auto per_pass = [&](const std::string& span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  const double p = passes;
  const Rates rates = rates_of(ops, fastest(untraced_ms));
  const std::map<std::string, double> values = {
      {"analyses_per_s", rates.analyses_per_s},
      {"repairs_per_s", rates.repairs_per_s},
      {"fail_ratio", static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted)},
      {"core.compile_sched_ms", per_pass("core.compile_sched")},
      {"analysis.passes_ms", per_pass("analysis.passes")},
      {"analysis.certify_ms", per_pass("analysis.certify")},
      {"analysis.render_ms", per_pass("analysis.render")},
      {"analysis.repair_ms", per_pass("analysis.repair")},
      {"analysis.repair_rounds", rounds / p},
      {"analysis.fixits_applied", fixits / p},
      {"analysis.diagnostics", diagnostics / p},
      {"api.spec_decode_ms", per_pass("api.spec_decode")},
      {"obs.trace_overhead_pct",
       100.0 * (sum(fastest(traced_ms)) / sum(fastest(untraced_ms)) - 1)},
      {"bench.unaccounted_pct",
       100.0 * (traced_wall_ms - layer_ms) / traced_wall_ms},
  };
  emit_per_layer(out, values);
  out.info("passes=" + std::to_string(passes) +
           " (per-layer values are per pass of the op set)");
  describe_breakdown(out, self, traced_wall_ms);
  spans.write_chrome(args.work_dir + "/spans-analyze_fix-seed" +
                     std::to_string(args.seed) + ".json");
}

}  // namespace perfbench
