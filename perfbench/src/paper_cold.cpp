// paper_cold: the Fig. 3/4 job set (six Table 2 benchmarks x all seven
// schemes) through api::Session::run, one job at a time on one worker, with
// the TraceCache cleared before every job — what a fresh `sdpm_cli run` pays.
//
// The traced run replays each job step by step through the public calls
// experiments::Runner makes, in its order, and checks the outcomes equal
// Session::run's bit for bit.
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/job_result.h"
#include "api/session.h"
#include "common.h"
#include "core/compiler.h"
#include "core/mispredict.h"
#include "core/schedule.h"
#include "experiments/trace_cache.h"
#include "layout/layout_table.h"
#include "obs/metrics.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/oracle.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/simulator.h"
#include "trace/stall_aware.h"
#include "trace/timeline.h"
#include "util/json.h"
#include "workloads/benchmarks.h"

namespace perfbench {
namespace {

namespace api = sdpm::api;
namespace ex = sdpm::experiments;

constexpr unsigned kWorkers = 1;

/// Work counted at layer boundaries during traced jobs.
struct Counts {
  std::int64_t requests_generated = 0;
  std::int64_t access_walks = 0;
  std::int64_t calls_inserted = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t requests_replayed = 0;
};

/// The untraced job: decode the spec, run it cold, encode the result.
api::JobResult run_job(api::Session& session, const std::string& spec_text) {
  ex::TraceCache::global().clear();
  const api::JobSpec spec = api::JobSpec::from_json(sdpm::Json::parse(spec_text));
  api::JobResult result = session.run(spec);
  const std::string encoded = result.to_json().dump();
  if (encoded.empty()) throw std::runtime_error("empty JobResult encoding");
  return result;
}

/// TraceCache::get_or_generate inside a span named after what it did: a
/// generation miss is trace-layer work, a hit is the cache's own.
std::shared_ptr<const sdpm::trace::Trace> traced_lookup(
    SpanLog& spans, int job, const sdpm::ir::Program& program,
    const sdpm::layout::LayoutTable& layout,
    const sdpm::trace::GeneratorOptions& gen, Counts& n) {
  const auto& hits =
      sdpm::obs::MetricsRegistry::global().counter("trace_cache.hits");
  const std::int64_t hits_before = hits.load();
  const int id = spans.begin("trace.generate", job);
  auto trace = ex::TraceCache::global().get_or_generate(program, layout, gen);
  const bool hit = hits.load() > hits_before;
  spans.end(id, hit ? "experiments.trace_cache_hit" : nullptr);
  if (hit) {
    ++n.cache_hits;
  } else {
    ++n.cache_misses;
    ++n.access_walks;
    n.requests_generated += trace->request_count();
  }
  return trace;
}

/// One job through the public calls Session::run -> Runner::run_all makes.
api::JobResult traced_job(SpanLog& spans, int job, const std::string& spec_text,
                          Counts& n) {
  const int root = spans.begin("bench.job", job);
  spans.time("experiments.cache_clear", job,
             [] { ex::TraceCache::global().clear(); });

  api::JobSpec spec;
  ex::ExperimentConfig config;
  spans.time("api.spec_decode", job, [&] {
    spec = api::JobSpec::from_json(sdpm::Json::parse(spec_text));
    config = spec.to_config();
  });
  const Clock::time_point started = Clock::now();
  const sdpm::workloads::Benchmark bench = spans.time(
      "workloads.make_benchmark", job,
      [&] { return sdpm::workloads::make_benchmark(spec.benchmark); });

  sdpm::core::CompilerOptions co;
  co.total_disks = config.total_disks;
  co.base_striping = config.striping;
  co.disk_params = config.disk;
  co.access = config.gen;
  co.tile_bytes = config.tile_bytes;
  const sdpm::core::CompileOutput compiled =
      spans.time("core.compile", job, [&] {
        return sdpm::core::compile(bench.program, config.transform,
                                   std::nullopt, co);
      });
  const sdpm::layout::LayoutTable layout =
      spans.time("layout.build", job, [&] {
        return sdpm::layout::LayoutTable(compiled.program, compiled.striping,
                                         config.total_disks);
      });

  sdpm::trace::GeneratorOptions actual_gen = config.gen;
  actual_gen.noise = config.actual_noise;
  const auto trace =
      traced_lookup(spans, job, compiled.program, layout, actual_gen, n);

  auto replay = [&](sdpm::sim::PowerPolicy& policy,
                    const sdpm::trace::Trace& t, bool capture) {
    sdpm::sim::SimOptions options;
    options.mode = sdpm::sim::ReplayMode::kClosedLoop;
    options.faults = config.faults;
    options.capture_responses = capture;
    options.capture_busy_periods = capture;
    sdpm::sim::SimReport report = spans.time("sim.replay", job, [&] {
      return sdpm::sim::simulate(t, config.disk, policy, options);
    });
    n.requests_replayed += report.requests;
    return report;
  };
  sdpm::policy::BasePolicy base_policy;
  const sdpm::sim::SimReport base = replay(base_policy, *trace, true);
  sdpm::policy::TpmPolicy tpm_policy;
  const sdpm::sim::SimReport tpm = replay(tpm_policy, *trace, false);
  sdpm::policy::DrpmPolicy drpm_policy;
  const sdpm::sim::SimReport drpm = replay(drpm_policy, *trace, false);
  const sdpm::policy::OracleReport itpm = spans.time(
      "policy.oracle", job,
      [&] { return sdpm::policy::ideal_tpm(base, config.disk); });
  const sdpm::policy::OracleReport idrpm = spans.time(
      "policy.oracle", job,
      [&] { return sdpm::policy::ideal_drpm(base, config.disk); });

  // The Runner memoizes measured timelines by (sigma, seed).
  auto measured = [&](const sdpm::trace::CycleNoise& noise) {
    return spans.time("trace.timeline", job, [&] {
      sdpm::trace::Timeline compute = sdpm::trace::Timeline::with_noise(
          compiled.program, noise, config.gen.clock_hz);
      std::vector<std::int64_t> miss_iters;
      miss_iters.reserve(trace->requests.size());
      for (const sdpm::trace::Request& r : trace->requests) {
        miss_iters.push_back(r.global_iter);
      }
      return std::make_unique<const sdpm::trace::StallAwareTimeline>(
          std::move(compute), std::move(miss_iters), base.responses);
    });
  };
  const auto profile_timeline = measured(config.profile_noise);
  std::unique_ptr<const sdpm::trace::StallAwareTimeline> actual_own;
  const sdpm::trace::StallAwareTimeline* actual_timeline =
      profile_timeline.get();
  if (config.actual_noise.sigma != config.profile_noise.sigma ||
      config.actual_noise.seed != config.profile_noise.seed) {
    actual_own = measured(config.actual_noise);
    actual_timeline = actual_own.get();
  }

  auto scheme_result = [&](ex::Scheme scheme, double energy_j,
                           double execution_ms) {
    ex::SchemeResult r;
    r.scheme = scheme;
    r.requests = base.requests;
    r.energy_j = energy_j;
    r.execution_ms = execution_ms;
    r.normalized_energy = r.energy_j / base.total_energy;
    r.normalized_time = r.execution_ms / base.execution_ms;
    return r;
  };
  std::vector<ex::SchemeResult> cm;
  for (const sdpm::core::PowerMode mode :
       {sdpm::core::PowerMode::kTpm, sdpm::core::PowerMode::kDrpm}) {
    const bool is_tpm = mode == sdpm::core::PowerMode::kTpm;
    sdpm::core::SchedulerOptions so;
    so.mode = mode;
    so.access = config.gen;
    so.call_site_granularity = config.call_site_granularity;
    so.preactivate = config.preactivate;
    so.estimate = profile_timeline.get();
    const sdpm::core::ScheduleResult scheduled =
        spans.time("core.schedule", job, [&] {
          return sdpm::core::schedule_power_calls(compiled.program, layout,
                                                  config.disk, so);
        });
    ++n.access_walks;  // DiskAccessPattern::analyze
    n.calls_inserted += scheduled.calls_inserted;
    const auto cm_trace =
        traced_lookup(spans, job, scheduled.program, layout, actual_gen, n);
    sdpm::policy::ProactivePolicy policy(is_tpm ? "CMTPM" : "CMDRPM");
    const sdpm::sim::SimReport report = replay(policy, *cm_trace, false);
    const double mispredict = spans.time("core.mispredict", job, [&] {
      return sdpm::core::compare_with_oracle(scheduled.plans,
                                             *actual_timeline, config.disk,
                                             mode)
          .percent();
    });
    ex::SchemeResult r =
        scheme_result(is_tpm ? ex::Scheme::kCmtpm : ex::Scheme::kCmdrpm,
                      report.total_energy, report.execution_ms);
    r.power_calls = scheduled.calls_inserted;
    r.mispredict_pct = mispredict;
    cm.push_back(r);
  }

  api::JobResult result;
  result.label = spec.display_label();
  result.benchmark = spec.benchmark;
  result.transform = spec.transform;
  for (const ex::SchemeResult& r : {
           scheme_result(ex::Scheme::kBase, base.total_energy,
                         base.execution_ms),
           scheme_result(ex::Scheme::kTpm, tpm.total_energy,
                         tpm.execution_ms),
           scheme_result(ex::Scheme::kItpm, itpm.total_energy,
                         itpm.execution_ms),
           scheme_result(ex::Scheme::kDrpm, drpm.total_energy,
                         drpm.execution_ms),
           scheme_result(ex::Scheme::kIdrpm, idrpm.total_energy,
                         idrpm.execution_ms),
           cm[0],
           cm[1],
       }) {
    result.schemes.push_back(api::outcome_from(r));
  }
  result.wall_ms = ms_between(started, Clock::now());
  const std::string encoded = spans.time(
      "api.result_encode", job, [&] { return result.to_json().dump(); });
  if (encoded.empty()) throw std::runtime_error("empty JobResult encoding");
  spans.end(root);
  return result;
}

std::string results_json(std::vector<api::JobResult> results) {
  sdpm::Json all = sdpm::Json::array();
  for (api::JobResult& r : results) {
    r.wall_ms = 0;  // a measurement, not an outcome
    all.push_back(r.to_json());
  }
  return all.dump();
}

void check_reference(const std::string& path,
                     const std::vector<api::JobResult>& results, Outcome& out) {
  std::ifstream is(path);
  if (!is) {
    out.fail("cannot read the default-seed reference " + path);
    return;
  }
  std::stringstream text;
  text << is.rdbuf();
  const sdpm::Json doc = sdpm::Json::parse(text.str());
  const auto& expected = doc.as_array();
  if (expected.size() != results.size()) {
    out.fail("reference holds a different job count");
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!(api::JobResult::from_json(expected[i]) == results[i])) {
      out.fail("job " + results[i].label +
               " differs from the default-seed reference");
    }
  }
}

}  // namespace

void run_paper_cold(const Args& args, Outcome& out) {
  pin_workers(kWorkers);
  std::vector<std::string> specs;
  // Set-up builds the benchmark programs the specs name, as a tool does
  // when it resolves its inputs; every Session call builds its own copy.
  std::vector<sdpm::workloads::Benchmark> programs;
  std::optional<api::Session> session;
  SetupTimer setup([&] {
    specs.clear();
    programs.clear();
    const std::vector<std::string> names = sdpm::workloads::benchmark_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      specs.push_back(seeded_spec(names[i], args.seed, i).canonical_json());
      programs.push_back(sdpm::workloads::make_benchmark(names[i]));
    }
    session.emplace(api::SessionOptions{.jobs = kWorkers});
  });
  setup.run();
  out.info("workload=paper_cold seed=" + std::to_string(args.seed) +
           " threads=1 (set_default_jobs, SessionOptions::jobs, malloc arenas)"
           " connections=0 jobs_per_pass=" + std::to_string(specs.size()));

  // Warm-up pass; every later pass must reproduce its outcomes.
  std::vector<api::JobResult> expected;
  for (const std::string& spec : specs) {
    expected.push_back(run_job(*session, spec));
  }
  if (!args.record_reference.empty()) {
    std::ofstream os(args.record_reference, std::ios::trunc);
    os << results_json(expected) << "\n";
    if (!os) out.fail("cannot write " + args.record_reference);
    return;
  }
  if (args.seed == 0) check_reference(args.reference, expected, out);

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  auto check = [&](const api::JobResult& got, std::size_t i,
                   const char* path) {
    ++out.attempted;
    if (!(got == expected[i])) {
      ++out.failed;
      out.fail(std::string(path) + " outcome of " + got.label +
               " differs from the first pass");
    }
  };

  if (!args.trace) {
    // Each pass moves to the next CPU, sets the system up again and runs
    // every job once.  A job's figure is its fastest pass: other tenants of
    // the host slow a CPU by up to 2x for seconds at a time, and the fastest
    // of many passes over every CPU is the program's own cost.
    std::vector<std::vector<double>> latencies(specs.size());
    int passes = 0;
    do {
      rotate_cpu(passes);
      setup.run();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const api::JobResult result = run_job(*session, specs[i]);
        latencies[i].push_back(ms_between(t0, Clock::now()));
        check(result, i, "Session::run");
      }
      ++passes;
    } while (Clock::now() < deadline);
    const std::vector<double> job_ms = fastest(latencies);
    out.info("passes=" + std::to_string(passes) +
             " samples_per_job=" + std::to_string(passes));
    out.metric("jobs_per_s",
               static_cast<double>(specs.size()) / (sum(job_ms) / 1e3), "1/s");
    out.metric("e2e_p99_ms", quantile(job_ms, 0.99), "ms");
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced: alternate an untraced Session::run pass with a step-by-step
  // traced pass of the same jobs; the two must agree bit for bit.  The
  // overhead compares each job's fastest untraced and traced pass.
  SpanLog spans;
  Counts n;
  std::vector<std::vector<double>> untraced_ms(specs.size());
  std::vector<std::vector<double>> traced_ms(specs.size());
  double traced_wall_ms = 0;
  int passes = 0;
  int job = 0;
  do {
    rotate_cpu(passes);
    std::vector<api::JobResult> untraced;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      untraced.push_back(run_job(*session, specs[i]));
      untraced_ms[i].push_back(ms_between(t0, Clock::now()));
    }
    std::vector<api::JobResult> traced;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      traced.push_back(traced_job(spans, job++, specs[i], n));
      traced_ms[i].push_back(ms_between(t0, Clock::now()));
      traced_wall_ms += traced_ms[i].back();
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      check(untraced[i], i, "Session::run");
      check(traced[i], i, "step-by-step");
    }
    ++passes;
  } while (Clock::now() < deadline);

  const std::map<std::string, double> self = spans.self_ms_by_name();
  const std::map<std::string, double> layers = spans.self_ms_by_layer();
  double layer_ms = 0;
  for (const auto& [layer, ms] : layers) layer_ms += ms;
  auto per_pass = [&](const std::string& span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  const double p = passes;
  const std::map<std::string, double> values = {
      {"fail_ratio", static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted)},
      {"trace.generate_ms", per_pass("trace.generate")},
      {"trace.requests_generated", n.requests_generated / p},
      {"trace.timeline_ms", per_pass("trace.timeline")},
      {"trace.access_walks", n.access_walks / p},
      {"core.compile_ms", per_pass("core.compile")},
      {"core.schedule_ms", per_pass("core.schedule")},
      {"core.calls_inserted", n.calls_inserted / p},
      {"core.mispredict_ms", per_pass("core.mispredict")},
      {"experiments.trace_cache_hits", n.cache_hits / p},
      {"experiments.trace_cache_misses", n.cache_misses / p},
      {"sim.replay_ms", per_pass("sim.replay")},
      {"sim.requests_replayed", n.requests_replayed / p},
      {"policy.oracle_ms", per_pass("policy.oracle")},
      {"api.spec_decode_ms", per_pass("api.spec_decode")},
      {"api.result_encode_ms", per_pass("api.result_encode")},
      {"obs.trace_overhead_pct",
       100.0 * (sum(fastest(traced_ms)) / sum(fastest(untraced_ms)) - 1)},
      {"bench.unaccounted_pct",
       100.0 * (traced_wall_ms - layer_ms) / traced_wall_ms},
  };
  emit_per_layer(out, values);
  out.info("passes=" + std::to_string(passes) +
           " (per-layer values are per pass of the job set)");
  describe_breakdown(out, self, traced_wall_ms);
  spans.write_chrome(args.work_dir + "/spans-paper_cold-seed" +
                     std::to_string(args.seed) + ".json");
}

}  // namespace perfbench
