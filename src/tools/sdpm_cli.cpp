// sdpm_cli — command-line driver for the sdpm library.
//
//   sdpm_cli list
//       Show the available benchmarks, schemes, transformations and
//       device presets.
//
// Every simulating command accepts --device PRESET|FILE.json to pick the
// disk model: a power-ladder preset name (see `list`) or a path to a
// ladder descriptor JSON file (disk::PowerLadder::to_json format).  The
// default is the paper's IBM Ultrastar 36Z15.
//   sdpm_cli run --benchmark swim [--scheme all|Base|TPM|ITPM|DRPM|IDRPM|
//                 CMTPM|CMDRPM] [--transform none|LF|TL|LF+DL|TL+DL]
//                 [--disks N] [--stripe BYTES] [--block BYTES]
//                 [--cache BYTES] [--noise SIGMA] [--no-preactivate] [--csv]
//                 [--out FILE --format chrome|jsonl|csv|metrics]
//                 [--preact-report]
//       Evaluate scheme(s) on a benchmark under a configuration, through
//       the sdpm::api::Session facade.  With a trace --format (single
//       non-oracle --scheme required) the replay's event stream is
//       exported to --out: "chrome" is Perfetto-loadable trace JSON
//       timestamped in simulated time, "jsonl" a structured log, "csv" the
//       per-disk power-state timeline; "metrics" dumps the metrics
//       registry as JSON (to stdout without --out).  --preact-report
//       prints the pre-activation accounting (hit / late / wasted
//       spin-ups).
//   sdpm_cli dap --benchmark NAME [--disks N] [--stripe BYTES]
//       Print the compiler's Disk Access Pattern for a benchmark.
//   sdpm_cli trace --benchmark NAME [--out FILE] [config flags]
//       Emit the generated I/O request trace in the text format.
//   sdpm_cli replay --in FILE [--policy Base|TPM|ATPM|DRPM] [--open-loop]
//       Replay a (possibly external) text trace under a reactive policy.
//   sdpm_cli bench [--suite sweep|simulator] [--benchmark NAME]
//                 [--out FILE] [--format table|csv|json|metrics]
//                 [--jobs N] [--compare FILE] [--tolerance N]
//       --suite sweep (default): the 7-scheme x 8-config sweep through
//       the facade's batched entry point; --format json emits its
//       BenchSnapshot, --format metrics the metrics registry (access
//       walks, trace-cache hits/misses, per-cell wall time, peak RSS).
//       --suite simulator: the single-disk hot-loop replay suite (Base
//       policy on swim, plus the null-tracer overhead probe); --format
//       json emits its BenchSnapshot.  --compare FILE checks the fresh
//       run against a stored snapshot (BENCH_simulator.json /
//       BENCH_sweep.json at the repo root) with a --tolerance percent
//       band (default 15) on calibration-normalized throughput; a
//       regression exits 4.
//   sdpm_cli client --socket PATH --op ping|submit|run|status|result|
//                 cancel|stats|telemetry|drain|shutdown [--id N] [--wait]
//                 [--trace-id HEX] [job flags]
//       Talk to a running sdpm_serviced daemon.  "submit" admits a job
//       built from the usual run flags and prints its id; "run" submits,
//       waits for the terminal state and prints the job JSON; "result
//       --wait" blocks until an existing job is terminal.  --trace-id
//       (submit/run) propagates a client trace context so the daemon's
//       --trace-out stream stitches this job's service lifecycle to its
//       simulated-time disk tracks.  "telemetry" prints the daemon's
//       per-stage latency histograms (--prometheus for the text
//       exposition); "stats --watch [N]" renders a live summary line
//       every --interval-ms (default 1000).
//   sdpm_cli analyze --benchmark NAME [--mode CMTPM|CMDRPM]
//                 [--format text|json] [--fail-on error|warning|note]
//                 [--baseline FILE] [--write-baseline FILE]
//                 [--mutate late-preact|short-gap|overlap-fission]
//                 [--fix] [--list-rules] [config flags]
//       Statically lint the compiled power-call schedule (no simulation):
//       break-even violations, late/missing pre-activations, redundant or
//       conflicting directives, DRPM misfits, fission disk-set overlap,
//       transformation legality, layout coverage.  The report carries the
//       certifier's guaranteed energy/execution bounds.  --mutate seeds a
//       known bug class first (for validating the analyzer).  --fix
//       applies the diagnostics' SDPM-F### fix-its to a fixed point and
//       reports the repaired schedule.  Exits 3 when any diagnostic at or
//       above the --fail-on severity survives the baseline.
//
// --jobs N caps the worker count of every parallel phase (equivalent to
// SDPM_JOBS in the environment).
//
// Every command reads the config and fault flags once, through
// job_spec_from(): inspect/profile/dap/trace lay out the --transform
// output as Runner does, codegen compiles for --device, and a bad value
// is a usage error naming the JobSpec field.  Each command accepts only
// the flags it reads: the config group where it builds a job from them,
// the fault-injection group (--fault-seed, --fault-spinup, --fault-media,
// --fault-jitter, --fault-drop, --fault-retries) where it simulates with
// them; replay takes --device and the fault flags alone, and list and
// device none of them.  inspect/replay accept --resilient to wrap the
// chosen policy in the degrading ResilientPolicy.
//
// Exit codes: 0 success, 1 runtime error (sdpm::Error), 2 usage error
// (unknown command / flag / malformed value, reported with the usage
// text), 3 analyze found diagnostics at or above the --fail-on severity,
// 4 bench --compare detected a performance regression.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/mutate.h"
#include "analysis/registry.h"
#include "api/job_result.h"
#include "api/job_spec.h"
#include "api/session.h"
#include "core/codegen.h"
#include "core/compiler.h"
#include "disk/ladder.h"
#include "experiments/bench_baseline.h"
#include "experiments/bench_suite.h"
#include "experiments/profile.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "experiments/trace_cache.h"
#include "obs/metrics.h"
#include "obs/preactivation.h"
#include "obs/sim_metrics.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "policy/adaptive_tpm.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/resilient.h"
#include "policy/tpm.h"
#include "service/client.h"
#include "sim/simulator.h"
#include "tools/args.h"
#include "trace/dap.h"
#include "trace/text_io.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

#include "sdpm_version.h"

namespace {

using namespace sdpm;
using tools::Args;

const char* usage_text() {
  return
      "usage: sdpm_cli <command> [flags]\n"
      "  list                       show benchmarks / schemes / transforms\n"
      "  device --preset NAME [--out FILE] | --validate FILE\n"
      "         export a preset's canonical power-ladder JSON (editable,\n"
      "         feed back via --device FILE.json), or lint a descriptor\n"
      "  run    --benchmark NAME [--scheme S] [--transform T] [config]\n"
      "         [--out FILE] [--format chrome|jsonl|csv|metrics]\n"
      "         [--preact-report]\n"
      "         trace formats need a single non-oracle --scheme; chrome\n"
      "         traces load in Perfetto (simulated-time tracks per disk)\n"
      "  inspect --benchmark NAME [--policy P] [--per-disk] [config]\n"
      "  codegen --benchmark NAME [--mode CMTPM|CMDRPM] [--transform T]\n"
      "  profile --benchmark NAME [config]\n"
      "  dap    --benchmark NAME [config]\n"
      "  trace  --benchmark NAME [--out FILE] [config]\n"
      "  replay --in FILE [--policy P] [--open-loop] [--per-disk]\n"
      "         [--device D] [fault]\n"
      "  bench  [--benchmark NAME] [--out FILE]\n"
      "         [--format table|csv|json|metrics] [config]\n"
      "         sweep all 7 schemes x 8 configs through the batched facade\n"
      "         entry point; --format json emits its BenchSnapshot\n"
      "         (BENCH_sweep.json schema), --format metrics the metrics\n"
      "         registry, instead of the table\n"
      "  client --socket PATH --op ping|submit|run|status|result|cancel|\n"
      "         stats|telemetry|drain|shutdown [--id N] [--wait]\n"
      "         [--retry-connect [N]] [--trace-id HEX [--span-id HEX]]\n"
      "         [job flags]   talk to a running sdpm_serviced daemon;\n"
      "         --retry-connect retries a refused/absent socket with\n"
      "         backoff (default 40 attempts) to ride out restarts;\n"
      "         submit/run propagate --trace-id into the daemon's trace;\n"
      "         telemetry prints stage latency histograms (--prometheus\n"
      "         for text exposition); stats --watch [N] [--interval-ms M]\n"
      "         renders a live one-line summary per tick\n"
      "  analyze --benchmark NAME [--mode CMTPM|CMDRPM]\n"
      "         [--format text|json] [--fail-on error|warning|note]\n"
      "         [--baseline FILE] [--write-baseline FILE]\n"
      "         [--mutate late-preact|short-gap|overlap-fission]\n"
      "         [--fix] [--list-rules] [config]\n"
      "         static energy-safety lint of the compiled schedule with\n"
      "         certified energy bounds; --fix applies SDPM-F### fix-its\n"
      "         to a fixed point; exits 3 when a diagnostic at or above\n"
      "         the --fail-on severity survives the baseline\n"
      "  --help / --version         print this help / the build version\n"
      "config flags: --disks N --stripe BYTES --block BYTES --cache BYTES\n"
      "              --noise SIGMA --no-preactivate --transform T\n"
      "              --device PRESET|FILE.json (a power-ladder preset name\n"
      "              from `list`, or a ladder descriptor file)\n"
      "              on run/inspect/codegen/profile/dap/trace/analyze/\n"
      "              client; bench takes all but --disks and --stripe\n"
      "fault flags:  --fault-seed N --fault-spinup P --fault-media P\n"
      "              --fault-jitter F --fault-drop P --fault-retries N\n"
      "              on run/inspect/replay/bench/client (inspect/replay\n"
      "              also accept --resilient)\n"
      "--csv         tables as CSV (run/inspect/profile/replay/bench)\n"
      "--jobs N      worker cap of the parallel phases (run/bench)\n"
      "exit codes:   0 ok, 1 runtime error, 2 usage error, 3 analyze "
      "findings\n";
}

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr << usage_text();
  std::exit(2);
}

/// A set of flags several commands read.
using FlagGroup = std::span<const std::string_view>;

/// The job's inputs, as job_spec_from reads them.
constexpr std::string_view kConfigFlags[] = {
    "disks", "stripe",         "block",     "cache",
    "noise", "no-preactivate", "transform", "device"};
/// Fault injection, as job_spec_from reads it; only commands that
/// simulate with it take the group.
constexpr std::string_view kFaultFlags[] = {
    "fault-seed",   "fault-spinup", "fault-media",
    "fault-jitter", "fault-drop",   "fault-retries"};

/// Reject every flag that is neither the command's own nor in one of its
/// groups (distinct from a runtime error: a typo'd or unread flag exits 2
/// with the usage text, before any work).
void require_known_flags(const std::string& command, const Args& args,
                         std::initializer_list<std::string_view> own,
                         std::initializer_list<FlagGroup> groups = {}) {
  for (const auto& flag : args.values()) {
    const auto has = [&](FlagGroup group) {
      return std::find(group.begin(), group.end(), flag.first) != group.end();
    };
    if (!has(own) && std::none_of(groups.begin(), groups.end(), has)) {
      usage("unknown flag '--" + flag.first + "' for command '" + command +
            "'");
    }
  }
}

/// Write the process-wide metrics registry as JSON to `path`.
void write_metrics_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) usage("cannot open '" + path + "'");
  out << obs::MetricsRegistry::global().to_json() << "\n";
}

/// Apply --device to a job spec: a preset name goes in as-is; anything
/// else is read as a power-ladder JSON descriptor file and stored inline.
void apply_device_flag(const Args& args, api::JobSpec& spec) {
  if (!args.has("device")) return;
  const std::string value = args.get("device");
  if (disk::PowerLadder::is_preset(value)) {
    spec.device = value;
    return;
  }
  std::ifstream in(value);
  if (!in) {
    usage("--device '" + value + "' is neither a preset (" +
          join(disk::PowerLadder::preset_names(), ", ") +
          ") nor a readable ladder JSON file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    spec.device_inline_json =
        disk::PowerLadder::from_json(Json::parse(text.str())).to_json().dump();
  } catch (const Error& e) {
    usage("--device file '" + value + "': " + e.what());
  }
}

/// Build the unified api::JobSpec from the common config + fault flags:
/// the one reading of those flags, validated (a bad value exits 2 naming
/// the field).
api::JobSpec job_spec_from(const Args& args) {
  api::JobSpec spec;
  spec.benchmark = args.get("benchmark", spec.benchmark);
  spec.disks = static_cast<int>(args.get_int("disks", spec.disks));
  spec.stripe_size = args.get_int("stripe", spec.stripe_size);
  spec.block_size = args.get_int("block", spec.block_size);
  spec.cache_bytes = args.get_int("cache", spec.cache_bytes);
  if (args.has("noise")) {
    const double sigma = args.get_double("noise", spec.noise_sigma);
    spec.noise_sigma = sigma;
    spec.profile_sigma = sigma;
  }
  spec.preactivate = !args.has("no-preactivate");
  spec.transform = args.get("transform", spec.transform);
  apply_device_flag(args, spec);
  spec.fault_spinup = args.get_double("fault-spinup", 0.0);
  spec.fault_media = args.get_double("fault-media", 0.0);
  spec.fault_jitter = args.get_double("fault-jitter", 0.0);
  spec.fault_drop = args.get_double("fault-drop", 0.0);
  spec.fault_retries =
      static_cast<int>(args.get_int("fault-retries", spec.fault_retries));
  if (args.has("fault-seed")) spec.fault_seed = args.get_int("fault-seed", 0);
  const std::string scheme_name = args.get("scheme", "all");
  if (scheme_name != "all") {
    if (!api::scheme_from_name(scheme_name)) {
      usage("unknown scheme '" + scheme_name + "'");
    }
    spec.schemes = {scheme_name};
  }
  try {
    spec.validate();
  } catch (const Error& e) {
    usage(e.what());
  }
  return spec;
}

void emit(const Table& table, const Args& args) {
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_list() {
  std::cout << "benchmarks:";
  for (const std::string& name : workloads::benchmark_names()) {
    std::cout << " " << name;
  }
  std::cout << "\nschemes:   ";
  for (const experiments::Scheme s : experiments::all_schemes()) {
    std::cout << " " << experiments::to_string(s);
  }
  std::cout << "\ntransforms: none LF TL LF+DL TL+DL\n";
  std::cout << "device presets:";
  for (const std::string& name : disk::PowerLadder::preset_names()) {
    std::cout << " " << name;
  }
  std::cout << "\nreplay policies: Base TPM ATPM DRPM (each wrappable with "
               "--resilient)\n";
  return 0;
}

/// `device`: export a preset's canonical ladder JSON (the file format
/// --device accepts back), or lint a ladder descriptor file.
int cmd_device(const Args& args) {
  require_known_flags("device", args, {"preset", "out", "validate"});
  if (args.has("preset") == args.has("validate")) {
    usage("device requires exactly one of --preset NAME or --validate FILE");
  }
  if (args.has("validate")) {
    const std::string path = args.get("validate");
    std::ifstream in(path);
    if (!in) usage("device --validate: cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const disk::PowerLadder ladder =
          disk::PowerLadder::from_json(Json::parse(text.str()));
      const disk::PowerLadder again =
          disk::PowerLadder::from_json(ladder.to_json());
      if (again != ladder || again.to_json().dump() != ladder.to_json().dump()) {
        std::cerr << "error: '" << path
                  << "' does not survive a canonical JSON round trip\n";
        return 1;
      }
      std::cout << "ok: " << ladder.name << " (" << ladder.park_count()
                << " parks, " << ladder.level_count() << " levels)\n";
      return 0;
    } catch (const Error& e) {
      std::cerr << "error: '" << path << "': " << e.what() << "\n";
      return 1;
    }
  }
  const std::string name = args.get("preset");
  if (!disk::PowerLadder::is_preset(name)) {
    usage("unknown device preset '" + name + "' (known: " +
          join(disk::PowerLadder::preset_names(), ", ") + ")");
  }
  const std::string text = disk::PowerLadder::preset(name).to_json().dump();
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) usage("device --out: cannot write '" + args.get("out") + "'");
    out << text << "\n";
  } else {
    std::cout << text << "\n";
  }
  return 0;
}

int cmd_run(const Args& args) {
  require_known_flags("run", args,
                      {"benchmark", "scheme", "out", "format",
                       "preact-report", "csv", "jobs"},
                      {kConfigFlags, kFaultFlags});
  if (!args.has("benchmark")) usage("run requires --benchmark");
  const api::JobSpec spec = job_spec_from(args);
  const bool single_scheme = spec.schemes.size() == 1;
  // validate() has vetted the names, so the lookup cannot miss.
  const experiments::Scheme single =
      single_scheme ? api::scheme_from_name(spec.schemes.front())
                          .value_or(experiments::Scheme::kBase)
                    : experiments::Scheme::kBase;

  // Output: --out PATH + --format; metrics without --out go to stdout.
  const std::string out_path = args.get("out");
  const std::string format = args.get("format");
  const bool want_metrics = format == "metrics";
  const bool want_trace =
      format == "chrome" || format == "jsonl" || format == "csv";
  if (!format.empty() && !want_trace && !want_metrics) {
    usage("unknown --format '" + format +
          "' for run (chrome, jsonl, csv or metrics)");
  }
  if (want_trace && out_path.empty()) {
    usage("--format " + format + " requires --out FILE");
  }

  // Observability: sinks are stack-owned and must outlive tracer.close().
  const bool want_preact = args.has("preact-report");
  obs::EventTracer tracer;
  std::ofstream trace_file;
  std::optional<obs::JsonlSink> jsonl;
  std::optional<obs::ChromeTraceSink> chrome;
  std::optional<obs::TimelineCsvSink> timeline;
  obs::PreactivationAccountant accountant;
  api::RunHooks hooks;
  if (want_trace || want_preact) {
    if (!single_scheme) {
      usage("trace export / --preact-report need a single --scheme "
            "(a multi-scheme run would interleave unrelated replays)");
    }
    if (single == experiments::Scheme::kItpm ||
        single == experiments::Scheme::kIdrpm) {
      usage(std::string(experiments::to_string(single)) +
            " is an analytic oracle with no replay to trace");
    }
    if (want_trace) {
      trace_file.open(out_path);
      if (!trace_file) usage("cannot open '" + out_path + "'");
      if (format == "chrome") {
        tracer.add_sink(chrome.emplace(trace_file));
      } else if (format == "jsonl") {
        tracer.add_sink(jsonl.emplace(trace_file));
      } else {
        tracer.add_sink(timeline.emplace(trace_file));
      }
    }
    if (want_preact) tracer.add_sink(accountant);
    hooks.replay_tracer = &tracer;
    hooks.trace_scheme = single;
  }
  hooks.record_base_metrics = want_metrics;

  api::Session session;
  const api::JobResult result = session.run(spec, hooks);
  tracer.close();

  Table table(spec.benchmark + " (" + spec.transform + ")");
  table.set_header({"Scheme", "Energy (J)", "Norm. energy", "Exec (ms)",
                    "Norm. time", "Requests", "Calls", "Mispredict %"});
  for (const api::SchemeOutcome& r : result.schemes) {
    table.add_row({
        r.scheme,
        fmt_double(r.energy_j, 2),
        fmt_double(r.normalized_energy, 3),
        fmt_double(r.execution_ms, 2),
        fmt_double(r.normalized_time, 3),
        std::to_string(r.requests),
        std::to_string(r.power_calls),
        r.mispredict_pct ? fmt_double(*r.mispredict_pct, 2) : "-",
    });
  }
  emit(table, args);
  if (want_preact) std::cout << accountant.report().to_string();
  if (want_metrics) {
    // The Base report's distributions were folded in by the session
    // (RunHooks::record_base_metrics).
    if (out_path.empty()) {
      std::cout << obs::MetricsRegistry::global().to_json() << "\n";
    } else {
      write_metrics_json(out_path);
    }
  }
  return 0;
}

sim::PowerPolicy* pick_policy(const std::string& name,
                              policy::BasePolicy& base,
                              policy::TpmPolicy& tpm,
                              policy::AdaptiveTpmPolicy& atpm,
                              policy::DrpmPolicy& drpm) {
  if (name == "Base") return &base;
  if (name == "TPM") return &tpm;
  if (name == "ATPM") return &atpm;
  if (name == "DRPM") return &drpm;
  usage("unknown policy '" + name + "'");
}

int cmd_inspect(const Args& args) {
  require_known_flags("inspect", args,
                      {"benchmark", "policy", "per-disk", "resilient", "csv"},
                      {kConfigFlags, kFaultFlags});
  if (!args.has("benchmark")) usage("inspect requires --benchmark");
  const workloads::Benchmark bench =
      workloads::make_benchmark(args.get("benchmark"));
  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  experiments::Runner runner(bench, config);
  const trace::Trace& trace = runner.trace();

  policy::BasePolicy base;
  policy::TpmPolicy tpm;
  policy::AdaptiveTpmPolicy atpm;
  policy::DrpmPolicy drpm;
  sim::PowerPolicy* policy =
      pick_policy(args.get("policy", "Base"), base, tpm, atpm, drpm);
  std::optional<policy::ResilientPolicy> resilient;
  if (args.has("resilient")) policy = &resilient.emplace(*policy);
  const sim::SimReport report = sim::simulate(
      trace, config.disk, *policy, sim::SimOptions{.faults = config.faults});
  emit(experiments::summary_table(report, bench.name), args);
  if (args.has("per-disk")) {
    emit(experiments::per_disk_table(report), args);
  }
  return 0;
}

int cmd_codegen(const Args& args) {
  require_known_flags("codegen", args, {"benchmark", "mode"}, {kConfigFlags});
  if (!args.has("benchmark")) usage("codegen requires --benchmark");
  const workloads::Benchmark bench =
      workloads::make_benchmark(args.get("benchmark"));
  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  const std::string mode_name = args.get("mode", "CMDRPM");
  std::optional<core::PowerMode> mode;
  if (mode_name == "CMTPM") {
    mode = core::PowerMode::kTpm;
  } else if (mode_name == "CMDRPM") {
    mode = core::PowerMode::kDrpm;
  } else if (mode_name == "none") {
    mode = std::nullopt;
  } else {
    usage("unknown codegen mode '" + mode_name + "'");
  }
  const core::CompileOutput out =
      core::compile(bench.program, config.transform, mode,
                    experiments::compiler_options(config));
  std::cout << core::emit_pseudo_source(out.program);
  return 0;
}

int cmd_profile(const Args& args) {
  require_known_flags("profile", args, {"benchmark", "csv"}, {kConfigFlags});
  if (!args.has("benchmark")) usage("profile requires --benchmark");
  const workloads::Benchmark bench =
      workloads::make_benchmark(args.get("benchmark"));
  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  // The Base run captures the responses the per-nest profile needs and the
  // busy periods the idle-gap table walks.
  experiments::Runner runner(bench, config);
  const sim::SimReport& report = runner.base_report();
  emit(experiments::per_nest_profile(runner.program(), runner.trace(), report),
       args);
  emit(experiments::idle_gap_table(report, config.disk), args);
  return 0;
}

int cmd_dap(const Args& args) {
  require_known_flags("dap", args, {"benchmark"}, {kConfigFlags});
  if (!args.has("benchmark")) usage("dap requires --benchmark");
  const workloads::Benchmark bench =
      workloads::make_benchmark(args.get("benchmark"));
  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  const core::CompileOutput compiled =
      core::compile(bench.program, config.transform, std::nullopt,
                    experiments::compiler_options(config));
  const auto dap = trace::DiskAccessPattern::analyze(
      compiled.program, compiled.make_layout_table(config.total_disks),
      config.gen);
  std::cout << dap.to_string(compiled.program);
  return 0;
}

int cmd_trace(const Args& args) {
  require_known_flags("trace", args, {"benchmark", "out"}, {kConfigFlags});
  if (!args.has("benchmark")) usage("trace requires --benchmark");
  const workloads::Benchmark bench =
      workloads::make_benchmark(args.get("benchmark"));
  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  // The production-run trace `run` replays, actual noise included.
  experiments::Runner runner(bench, config);
  const trace::Trace& trace = runner.trace();
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) usage("cannot open '" + args.get("out") + "'");
    trace::write_trace_text(trace, out);
    std::cout << trace.requests.size() << " requests written to "
              << args.get("out") << "\n";
  } else {
    trace::write_trace_text(trace, std::cout);
  }
  return 0;
}

int cmd_replay(const Args& args) {
  require_known_flags("replay", args,
                      {"in", "policy", "open-loop", "per-disk", "resilient",
                       "csv", "device"},
                      {kFaultFlags});
  if (!args.has("in")) usage("replay requires --in");
  std::ifstream in(args.get("in"));
  if (!in) usage("cannot open '" + args.get("in") + "'");
  const trace::Trace trace = trace::read_trace_text(in, args.get("in"));

  policy::BasePolicy base;
  policy::TpmPolicy tpm;
  policy::AdaptiveTpmPolicy atpm;
  policy::DrpmPolicy drpm;
  sim::PowerPolicy* policy =
      pick_policy(args.get("policy", "Base"), base, tpm, atpm, drpm);
  std::optional<policy::ResilientPolicy> resilient;
  if (args.has("resilient")) policy = &resilient.emplace(*policy);

  const experiments::ExperimentConfig config =
      job_spec_from(args).to_config();
  sim::SimOptions options;
  if (args.has("open-loop")) options.mode = sim::ReplayMode::kOpenLoop;
  options.faults = config.faults;
  const sim::SimReport report =
      sim::simulate(trace, config.disk, *policy, options);

  Table table("replay of " + args.get("in") + " under " +
              std::string(policy->name()));
  table.set_header({"Metric", "Value"});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"disks", std::to_string(report.disk_count())});
  table.add_row({"energy", fmt_double(report.total_energy, 2) + " J"});
  table.add_row({"completion", fmt_time_ms(report.execution_ms)});
  table.add_row({"mean response", fmt_time_ms(report.response_ms.mean())});
  table.add_row({"max response", fmt_time_ms(report.response_ms.max())});
  emit(table, args);
  if (args.has("per-disk")) {
    emit(experiments::per_disk_table(report), args);
  }
  return 0;
}

/// Compare a fresh snapshot against the baseline stored at
/// `baseline_path`, print the verdict lines and return the exit code
/// (0 within tolerance, 4 regression).
int emit_bench_comparison(const std::string& baseline_path,
                          const experiments::BenchSnapshot& fresh,
                          double tolerance_pct) {
  std::ifstream in(baseline_path);
  if (!in) usage("cannot open '" + baseline_path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const experiments::BenchSnapshot baseline =
      experiments::BenchSnapshot::from_json(text.str());
  const experiments::BenchComparison cmp =
      experiments::compare_snapshots(baseline, fresh, tolerance_pct);
  std::cout << "bench compare (" << fresh.suite << " suite) vs "
            << baseline_path << ":\n";
  for (const std::string& note : cmp.notes) std::cout << "  " << note << "\n";
  return cmp.regressed ? 4 : 0;
}

/// The --suite simulator branch of cmd_bench: the single-disk hot-loop
/// replay suite plus the null-tracer overhead probe.
int cmd_bench_simulator(const Args& args, const std::string& format,
                        double tolerance_pct) {
  if (format != "table" && format != "json") {
    usage("--suite simulator supports --format table or json");
  }
  const experiments::SimulatorSuiteResult run =
      experiments::run_simulator_suite();
  const experiments::BenchSnapshot snap =
      experiments::make_simulator_snapshot(run);

  std::ofstream out_file;
  if (args.has("out")) {
    out_file.open(args.get("out"));
    if (!out_file) usage("cannot open '" + args.get("out") + "'");
  }
  std::ostream& out = args.has("out") ? out_file : std::cout;

  if (format == "json") {
    out << snap.to_json() << "\n";
  } else {
    Table table("simulator suite (single-disk swim replay)");
    table.set_header({"Metric", "Value"});
    table.add_row({"requests/replay", std::to_string(run.trace_requests)});
    table.add_row({"replays/round", std::to_string(run.reps_per_round)});
    table.add_row({"best replay", fmt_double(run.base_ms_per_replay, 3) +
                                      " ms"});
    table.add_row({"throughput",
                   fmt_double(run.requests_per_sec / 1e6, 2) + " M req/s"});
    table.add_row({"null-tracer overhead",
                   fmt_double(run.null_tracer_overhead_pct, 2) + " %"});
    table.add_row({"calibration", fmt_double(snap.calib_score, 1)});
    table.add_row({"suite wall", fmt_double(run.wall_ms, 1) + " ms"});
    table.print(out);
  }
  if (args.has("compare")) {
    return emit_bench_comparison(args.get("compare"), snap, tolerance_pct);
  }
  return 0;
}

int cmd_bench(const Args& args) {
  const std::string suite = args.get("suite", "sweep");
  if (suite != "sweep" && suite != "simulator") {
    usage("unknown --suite '" + suite + "' for bench (sweep or simulator)");
  }
  if (suite == "simulator") {
    require_known_flags("bench", args,
                        {"suite", "out", "format", "compare", "tolerance"});
  } else {
    // The sweep's grid sets each job's disks and stripe size.
    require_known_flags("bench", args,
                        {"suite", "out", "format", "compare", "tolerance",
                         "benchmark", "csv", "jobs", "block", "cache",
                         "noise", "no-preactivate", "transform", "device"},
                        {kFaultFlags});
  }
  const double tolerance_pct = args.get_double("tolerance", 15.0);
  if (tolerance_pct < 0) usage("--tolerance must be non-negative");
  const std::string bench_name = args.get("benchmark", "swim");

  const std::string format =
      args.get("format", args.has("csv") ? "csv" : "table");
  if (format != "table" && format != "csv" && format != "json" &&
      format != "metrics") {
    usage("unknown --format '" + format +
          "' for bench (table, csv, json or metrics)");
  }

  if (suite == "simulator") {
    return cmd_bench_simulator(args, format, tolerance_pct);
  }

  api::Session session;

  // 8 configurations: 4 stripe sizes x 2 subsystem widths, each evaluated
  // under all 7 schemes (the paper's Figs. 5-8 sensitivity grid), batched
  // into one sweep dispatch through the facade.
  const std::vector<Bytes> stripes = {kib(16), kib(32), kib(64), kib(128)};
  const std::vector<int> widths = {4, 8};
  std::vector<api::JobSpec> specs;
  for (const int disks : widths) {
    for (const Bytes stripe : stripes) {
      api::JobSpec spec = job_spec_from(args);
      spec.benchmark = bench_name;
      spec.disks = disks;
      spec.stripe_factor = 0;  // whole-subsystem striping at each width
      spec.stripe_size = stripe;
      spec.label = bench_name + "/d" + std::to_string(disks) + "/s" +
                   std::to_string(stripe / 1024) + "K";
      specs.push_back(std::move(spec));
    }
  }

  // Bracket the sweep with two registry snapshots instead of resetting the
  // global counters: the diff isolates this sweep without destroying the
  // process-wide perf trajectory.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const obs::MetricsRegistry::Snapshot before = metrics.snapshot();
  const auto started = std::chrono::steady_clock::now();
  const std::vector<api::JobSlot> results = session.run_batch(specs);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  const obs::MetricsRegistry::Snapshot after = metrics.snapshot();
  // A failed cell fails the sweep with its own located error (exit 1).
  for (const api::JobSlot& slot : results) (void)slot.value();
  const unsigned jobs = default_jobs();

  // Primary output stream: --out or stdout.
  std::ofstream out_file;
  if (args.has("out")) {
    out_file.open(args.get("out"));
    if (!out_file) usage("cannot open '" + args.get("out") + "'");
  }
  std::ostream& out = args.has("out") ? out_file : std::cout;

  std::optional<experiments::BenchSnapshot> snap;
  const auto sweep_snapshot = [&]() -> const experiments::BenchSnapshot& {
    if (!snap) {
      // The gate metric is min-of-rounds like the simulator suite: the
      // primary run above warmed the trace cache, and each extra round
      // re-dispatches the same sweep, so a one-shot load spike cannot
      // fake a regression.  Rounds that simulate a different request
      // count (e.g. a future result cache short-circuiting the sweep)
      // are discarded rather than compared.
      constexpr int kGateRounds = 5;
      const std::int64_t requests =
          after.counter("sim.requests") - before.counter("sim.requests");
      double best_rps = experiments::sim_requests_per_sec(before, after);
      for (int round = 0; round < kGateRounds; ++round) {
        const obs::MetricsRegistry::Snapshot r0 = metrics.snapshot();
        (void)session.run_batch(specs);
        const obs::MetricsRegistry::Snapshot r1 = metrics.snapshot();
        if (r1.counter("sim.requests") - r0.counter("sim.requests") ==
            requests) {
          best_rps =
              std::max(best_rps, experiments::sim_requests_per_sec(r0, r1));
        }
      }
      snap = experiments::make_sweep_snapshot(before, after, wall_ms, jobs);
      snap->requests_per_sec = best_rps;
    }
    return *snap;
  };
  const auto finish = [&]() {
    return args.has("compare")
               ? emit_bench_comparison(args.get("compare"),
                                       sweep_snapshot(), tolerance_pct)
               : 0;
  };

  if (format == "metrics") {
    metrics.set_gauge("process.peak_rss_kib",
                      static_cast<double>(experiments::peak_rss_kib()));
    out << metrics.to_json() << "\n";
    return finish();
  }
  if (format == "json") {
    out << sweep_snapshot().to_json() << "\n";
    return finish();
  }

  Table table(bench_name + " sweep (" + std::to_string(jobs) + " jobs, " +
              fmt_double(wall_ms, 1) + " ms)");
  std::vector<std::string> header = {"Cell", "Task ms"};
  for (const experiments::Scheme s : experiments::all_schemes()) {
    header.push_back(std::string(experiments::to_string(s)) + " E");
  }
  table.set_header(header);
  for (const api::JobSlot& slot : results) {
    const api::JobResult& cell = *slot.result;
    std::vector<std::string> row = {cell.label, fmt_double(cell.wall_ms, 1)};
    for (const api::SchemeOutcome& r : cell.schemes) {
      row.push_back(fmt_double(r.normalized_energy, 3));
    }
    table.add_row(row);
  }
  if (format == "csv") {
    table.print_csv(out);
  } else {
    table.print(out);
  }
  return finish();
}

int cmd_analyze(const Args& args) {
  require_known_flags("analyze", args,
                      {"benchmark", "mode", "format", "fail-on", "baseline",
                       "write-baseline", "mutate", "fix", "list-rules"},
                      {kConfigFlags});
  if (args.has("list-rules")) {
    for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
      std::cout << rule.id << "  " << analysis::to_string(rule.severity)
                << "\t[" << rule.pass << "]\t" << rule.summary << "\n";
    }
    return 0;
  }
  if (!args.has("benchmark")) usage("analyze requires --benchmark");
  const api::JobSpec spec = job_spec_from(args);

  const std::string mode_name = args.get("mode", "CMDRPM");
  core::PowerMode mode;
  if (mode_name == "CMTPM") {
    mode = core::PowerMode::kTpm;
  } else if (mode_name == "CMDRPM") {
    mode = core::PowerMode::kDrpm;
  } else {
    usage("unknown analyze mode '" + mode_name + "'");
  }

  const std::string format = args.get("format", "text");
  if (format != "text" && format != "json") {
    usage("unknown --format '" + format + "' (text or json)");
  }
  const std::string fail_on = args.get("fail-on", "error");
  analysis::Severity threshold;
  if (fail_on == "error") {
    threshold = analysis::Severity::kError;
  } else if (fail_on == "warning") {
    threshold = analysis::Severity::kWarning;
  } else if (fail_on == "note") {
    threshold = analysis::Severity::kNote;
  } else {
    usage("unknown --fail-on '" + fail_on + "' (error, warning or note)");
  }

  // The facade reproduces the compiler pipeline and analyzes its exact
  // output (optionally seeding a known bug class first).
  std::optional<analysis::Mutation> mutation;
  if (args.has("mutate")) {
    mutation = analysis::mutation_from_name(args.get("mutate"));
    if (!mutation) usage("unknown --mutate '" + args.get("mutate") + "'");
  }
  const api::Session session;
  analysis::AnalysisReport report;
  if (args.has("fix")) {
    // Repair to a fixed point and judge the repaired schedule: the exit
    // code reflects what is left after the fix-its, and the repair
    // trailer goes to stderr so --format json stays machine-parseable.
    analysis::RepairOutcome outcome = session.repair(spec, mode, mutation);
    std::cerr << "fix: " << outcome.fixits_applied << " fix-it(s) applied"
              << " in " << outcome.rounds << " round(s), "
              << outcome.fixits_skipped << " skipped; "
              << (outcome.converged ? "converged" : "NOT converged") << "\n";
    for (const std::string& id : outcome.applied_ids) {
      std::cerr << "fix: applied " << id << "\n";
    }
    report = std::move(outcome.final_report);
  } else {
    report = session.analyze(spec, mode, mutation);
  }

  if (args.has("baseline")) {
    std::ifstream in(args.get("baseline"));
    if (!in) usage("cannot open '" + args.get("baseline") + "'");
    analysis::apply_baseline(report, analysis::Baseline::parse(in));
  }
  if (args.has("write-baseline")) {
    std::ofstream outfile(args.get("write-baseline"));
    if (!outfile) usage("cannot open '" + args.get("write-baseline") + "'");
    outfile << analysis::to_baseline(report);
  }

  std::cout << (format == "json" ? analysis::render_json(report)
                                 : analysis::render_text(report));
  const std::optional<analysis::Severity> worst = report.worst();
  if (worst.has_value() &&
      static_cast<int>(*worst) >= static_cast<int>(threshold)) {
    return 3;
  }
  return 0;
}

int cmd_client(const Args& args) {
  require_known_flags(
      "client", args,
      {"socket", "op", "id", "wait", "benchmark", "scheme", "retry-connect",
       "trace-id", "span-id", "prometheus", "watch", "interval-ms"},
      {kConfigFlags, kFaultFlags});
  if (!args.has("socket")) usage("client requires --socket PATH");
  const std::string op = args.get("op", "ping");
  service::ClientOptions client_options;
  if (args.has("retry-connect")) {
    // Keep knocking while the daemon restarts (crash recovery, rolling
    // restarts): retry refused/absent sockets with backoff for ~10s.
    client_options.connect_attempts =
        args.get("retry-connect").empty()
            ? 40
            : static_cast<int>(args.get_int("retry-connect", 40));
    if (client_options.connect_attempts < 1) {
      usage("client --retry-connect must be >= 1");
    }
  }
  service::Client client(args.get("socket"), client_options);

  if (op == "ping") {
    std::cout << client.ping().dump() << "\n";
    return 0;
  }
  if (op == "submit" || op == "run") {
    if (!args.has("benchmark")) {
      usage("client --op " + op + " requires --benchmark");
    }
    const api::JobSpec spec = job_spec_from(args);
    service::TraceContext trace;
    if (args.has("trace-id")) {
      trace.trace_id = service::parse_trace_hex(args.get("trace-id"));
      if (trace.trace_id == 0) {
        usage("client --trace-id must be 1..16 hex digits (nonzero)");
      }
    }
    if (args.has("span-id")) {
      trace.span_id = service::parse_trace_hex(args.get("span-id"));
    }
    const std::int64_t id = client.submit(spec, 8, trace);
    if (op == "submit") {
      Json line = Json::object();
      line.set("id", id);
      if (trace.active()) {
        line.set("trace_id", service::trace_hex(trace.trace_id));
      }
      std::cout << line.dump() << "\n";
      return 0;
    }
    const Json job = client.result(id, /*wait=*/true);
    std::cout << job.dump() << "\n";
    return job.at("state").as_string() == "done" ? 0 : 1;
  }
  if (op == "status" || op == "result" || op == "cancel") {
    if (!args.has("id")) usage("client --op " + op + " requires --id N");
    const std::int64_t id = args.get_int("id", 0);
    if (op == "cancel") {
      client.cancel(id);
      std::cout << "{\"cancelled\":true}\n";
      return 0;
    }
    const Json job = op == "status" ? client.status(id)
                                    : client.result(id, args.has("wait"));
    std::cout << job.dump() << "\n";
    return 0;
  }
  if (op == "stats") {
    if (!args.has("watch")) {
      std::cout << client.stats().dump() << "\n";
      return 0;
    }
    // Live mode: one summary line per tick, drawn from stats + telemetry.
    // --watch N stops after N ticks (0 / bare --watch = until interrupted).
    const std::int64_t ticks =
        args.get("watch").empty() ? 0 : args.get_int("watch", 0);
    const double interval_ms =
        args.has("interval-ms")
            ? static_cast<double>(args.get_int("interval-ms", 1000))
            : 1000.0;
    if (interval_ms <= 0) usage("client --interval-ms must be > 0");
    for (std::int64_t tick = 0; ticks == 0 || tick < ticks; ++tick) {
      if (tick > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(interval_ms));
      }
      const Json stats = client.stats();
      const Json telemetry = client.telemetry().at("telemetry");
      const Json& queue = stats.at("queue");
      const Json& e2e = telemetry.at("stages").at("e2e");
      const Json& queue_wait = telemetry.at("stages").at("queue_wait");
      const Json& completions =
          telemetry.at("windows").at("completions").at("10s");
      std::cout << str_printf(
                       "queue %lld/%lld running %lld | done %lld failed %lld "
                       "| %.1f jobs/s (10s) | e2e p50 %.1fms p99 %.1fms | "
                       "queue_wait p99 %.1fms",
                       static_cast<long long>(queue.at("depth").as_int()),
                       static_cast<long long>(queue.at("capacity").as_int()),
                       static_cast<long long>(queue.at("running").as_int()),
                       static_cast<long long>(queue.at("completed").as_int()),
                       static_cast<long long>(queue.at("failed").as_int()),
                       completions.at("rate_per_sec").as_double(),
                       e2e.at("p50_ms").as_double(),
                       e2e.at("p99_ms").as_double(),
                       queue_wait.at("p99_ms").as_double())
                << std::endl;
    }
    return 0;
  }
  if (op == "telemetry") {
    const Json response = client.telemetry(args.has("prometheus"));
    if (args.has("prometheus")) {
      std::cout << response.at("text").as_string();
    } else {
      std::cout << response.at("telemetry").dump() << "\n";
    }
    return 0;
  }
  if (op == "drain") {
    client.drain();
    std::cout << "{\"draining\":true}\n";
    return 0;
  }
  if (op == "shutdown") {
    client.shutdown();
    std::cout << "{\"shutting_down\":true}\n";
    return 0;
  }
  usage("unknown client --op '" + op + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::cout << usage_text();
    return 0;
  }
  if (command == "--version" || command == "-V" || command == "version") {
    std::cout << "sdpm_cli " << SDPM_VERSION << " (" << SDPM_BUILD_TYPE
              << ")\n";
    return 0;
  }
  try {
    const Args args(argc, argv, 2, usage);
    if (args.has("jobs")) set_default_jobs(args.get_count("jobs", 0));
    if (command == "list") {
      require_known_flags("list", args, {});
      return cmd_list();
    }
    if (command == "device") return cmd_device(args);
    if (command == "run") return cmd_run(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "codegen") return cmd_codegen(args);
    if (command == "profile") return cmd_profile(args);
    if (command == "dap") return cmd_dap(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "bench") return cmd_bench(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "client") return cmd_client(args);
    usage("unknown command '" + command + "'");
  } catch (const sdpm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
