// Observability layer: null-tracer fast path, sink formats, byte-stable
// exports, the bit-identical traced-vs-untraced guarantee across policies,
// pre-activation accounting, and the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "layout/layout_table.h"
#include "obs/metrics.h"
#include "obs/preactivation.h"
#include "obs/sim_metrics.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/json.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

namespace sdpm {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Request make_request(TimeMs arrival, int disk, BlockNo sector,
                            Bytes size) {
  trace::Request r;
  r.arrival_ms = arrival;
  r.disk = disk;
  r.start_sector = sector;
  r.size_bytes = size;
  return r;
}

trace::PowerEvent make_power(TimeMs at, ir::PowerDirective::Kind kind,
                             int disk, int level = 0) {
  trace::PowerEvent pe;
  pe.app_time_ms = at;
  pe.directive.kind = kind;
  pe.directive.disk = disk;
  pe.directive.rpm_level = level;
  return pe;
}

/// One request per disk per round, rounds separated by a long gap so TPM
/// spins disks down and every event kind the reactive path can produce
/// actually occurs.
trace::Trace gap_trace(int disks, int rounds, TimeMs gap_ms) {
  trace::Trace t;
  t.total_disks = disks;
  TimeMs at = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int d = 0; d < disks; ++d) {
      t.requests.push_back(make_request(at, d, 128 * r, kib(64)));
      t.bytes_transferred += kib(64);
    }
    at += gap_ms;
  }
  t.compute_total_ms = at;
  return t;
}

// ---------------------------------------------------------------------------
// Tracer core

TEST(Tracer, EffectiveTracerCollapsesInactive) {
  EXPECT_EQ(obs::effective_tracer(nullptr), nullptr);
  obs::EventTracer sinkless;
  EXPECT_EQ(obs::effective_tracer(&sinkless), nullptr);
  obs::CountingSink sink;
  obs::EventTracer active;
  active.add_sink(sink);
  EXPECT_EQ(obs::effective_tracer(&active), &active);
}

TEST(Tracer, EmitFansOutToEverySink) {
  obs::CountingSink a;
  obs::CountingSink b;
  obs::EventTracer tracer;
  tracer.add_sink(a);
  tracer.add_sink(b);
  obs::Event e;
  e.kind = obs::EventKind::kDirective;
  tracer.emit(e);
  e.kind = obs::EventKind::kService;
  tracer.emit(e);
  EXPECT_EQ(tracer.events_emitted(), 2);
  EXPECT_EQ(a.total(), 2);
  EXPECT_EQ(b.total(), 2);
  EXPECT_EQ(a.count(obs::EventKind::kDirective), 1);
  EXPECT_EQ(b.count(obs::EventKind::kService), 1);
  EXPECT_EQ(a.count(obs::EventKind::kMediaError), 0);
}

TEST(Tracer, SpanEmitsBeginAndEnd) {
  obs::CountingSink sink;
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  {
    obs::Span span(&tracer, "run", 10.0);
    span.end(25.0);
  }
  // end() already fired; the destructor must not double-emit.
  EXPECT_EQ(sink.count(obs::EventKind::kSpanBegin), 1);
  EXPECT_EQ(sink.count(obs::EventKind::kSpanEnd), 1);
  {
    obs::Span span(&tracer, "abandoned", 0.0);
  }
  EXPECT_EQ(sink.count(obs::EventKind::kSpanEnd), 2);
  {
    obs::Span span(nullptr, "untraced", 0.0);  // null tracer: no-op
    span.end(1.0);
  }
  EXPECT_EQ(sink.total(), 4);
}

// ---------------------------------------------------------------------------
// Bit-identical traced vs untraced

void expect_reports_bit_identical(const sim::SimReport& a,
                                  const sim::SimReport& b) {
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.execution_ms, b.execution_ms);
  EXPECT_EQ(a.compute_ms, b.compute_ms);
  EXPECT_EQ(a.io_stall_ms, b.io_stall_ms);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    ASSERT_EQ(a.responses[i], b.responses[i]) << "request " << i;
  }
  ASSERT_EQ(a.disks.size(), b.disks.size());
  for (std::size_t d = 0; d < a.disks.size(); ++d) {
    EXPECT_EQ(a.disks[d].breakdown.total_j(), b.disks[d].breakdown.total_j());
    EXPECT_EQ(a.disks[d].breakdown.total_ms(), b.disks[d].breakdown.total_ms());
    EXPECT_EQ(a.disks[d].services, b.disks[d].services);
    EXPECT_EQ(a.disks[d].spin_downs, b.disks[d].spin_downs);
    EXPECT_EQ(a.disks[d].demand_spin_ups, b.disks[d].demand_spin_ups);
    EXPECT_EQ(a.disks[d].rpm_transitions, b.disks[d].rpm_transitions);
    EXPECT_EQ(a.disks[d].spin_up_retries, b.disks[d].spin_up_retries);
    EXPECT_EQ(a.disks[d].media_errors, b.disks[d].media_errors);
    EXPECT_EQ(a.disks[d].remapped_sectors, b.disks[d].remapped_sectors);
    EXPECT_EQ(a.disks[d].dropped_directives, b.disks[d].dropped_directives);
  }
}

/// The tracing contract: attaching a tracer must not perturb the replay by
/// a single bit.  Runs the same simulation untraced and traced (fresh
/// policy each time) and compares the reports exactly.
template <typename MakePolicy>
void check_traced_identical(const trace::Trace& t, MakePolicy make_policy,
                            sim::SimOptions options) {
  options.capture_responses = true;

  options.tracer = nullptr;
  auto policy_a = make_policy();
  const sim::SimReport untraced = sim::simulate(t, params(), policy_a, options);

  obs::CountingSink sink;
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  options.tracer = &tracer;
  auto policy_b = make_policy();
  const sim::SimReport traced = sim::simulate(t, params(), policy_b, options);
  tracer.close();

  expect_reports_bit_identical(untraced, traced);
  EXPECT_GT(sink.total(), 0);
  // Every serviced request shows up, and state segments cover the run.
  EXPECT_EQ(sink.count(obs::EventKind::kService), traced.requests);
  EXPECT_GT(sink.count(obs::EventKind::kStateSegment), 0);
}

sim::SimOptions faulty_options() {
  sim::SimOptions o;
  o.faults.spin_up_failure_prob = 0.3;
  o.faults.media_error_prob = 0.05;
  o.faults.dropped_directive_prob = 0.2;
  o.faults.service_jitter = 0.1;
  o.faults.seed = 42;
  return o;
}

TEST(TracedIdentical, TpmGapTrace) {
  const trace::Trace t = gap_trace(4, 6, 30'000.0);
  check_traced_identical(
      t, [] { return policy::TpmPolicy(); }, sim::SimOptions{});
}

TEST(TracedIdentical, TpmGapTraceWithFaults) {
  const trace::Trace t = gap_trace(4, 6, 30'000.0);
  check_traced_identical(
      t, [] { return policy::TpmPolicy(); }, faulty_options());
}

TEST(TracedIdentical, DrpmGapTrace) {
  const trace::Trace t = gap_trace(4, 8, 4'000.0);
  check_traced_identical(
      t, [] { return policy::DrpmPolicy(); }, sim::SimOptions{});
}

TEST(TracedIdentical, OpenLoopWithFaults) {
  const trace::Trace t = gap_trace(2, 6, 30'000.0);
  sim::SimOptions o = faulty_options();
  o.mode = sim::ReplayMode::kOpenLoop;
  check_traced_identical(t, [] { return policy::TpmPolicy(); }, o);
}

TEST(TracedIdentical, ProactiveBenchmarkTrace) {
  // A real compiler-produced trace with power events (CMDRPM on galgel
  // inserts thousands of set_rpm calls).
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(
      bench.program, layout::Striping{0, 4, kib(64)}, 4);
  trace::TraceGenerator generator(bench.program, table, {});
  trace::Trace t = generator.generate();
  check_traced_identical(
      t, [] { return policy::ProactivePolicy("CM"); }, sim::SimOptions{});
}

// ---------------------------------------------------------------------------
// Sink formats

TEST(JsonlSink, FixedFieldOrder) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  obs::Event e;
  e.kind = obs::EventKind::kDirective;
  e.disk = 3;
  e.t0 = 1'234.5;
  e.t1 = 1'234.5;
  e.level = 2;
  e.label = "set_rpm";
  sink.on_event(e);
  sink.close();
  EXPECT_EQ(os.str(),
            "{\"kind\":\"directive\",\"disk\":3,\"t0\":1234.5,"
            "\"t1\":1234.5,\"state\":\"idle\",\"level\":2,"
            "\"energy_j\":0,\"value\":0,\"value2\":0,"
            "\"label\":\"set_rpm\"}\n");
}

TEST(JsonlSink, EscapesLabel) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  obs::Event e;
  e.kind = obs::EventKind::kDirective;
  e.label = "a\"b\\c";
  sink.on_event(e);
  EXPECT_NE(os.str().find("\"label\":\"a\\\"b\\\\c\""), std::string::npos);
}

/// Run a fixed simulation into a fresh sink of type Sink and return the
/// exported text.
template <typename Sink>
std::string export_fixed_run() {
  const trace::Trace t = gap_trace(3, 5, 30'000.0);
  std::ostringstream os;
  Sink sink(os);
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  policy::TpmPolicy policy;
  sim::SimOptions options;
  options.tracer = &tracer;
  sim::simulate(t, params(), policy, options);
  tracer.close();
  return os.str();
}

TEST(ChromeTraceSink, ByteStableAcrossRuns) {
  const std::string first = export_fixed_run<obs::ChromeTraceSink>();
  const std::string second = export_fixed_run<obs::ChromeTraceSink>();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(first.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // One thread_name metadata record per disk track.
  EXPECT_NE(first.find("\"name\":\"disk 0\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"disk 2\""), std::string::npos);
}

TEST(JsonlSink, ByteStableAcrossRuns) {
  const std::string first = export_fixed_run<obs::JsonlSink>();
  EXPECT_EQ(first, export_fixed_run<obs::JsonlSink>());
}

// On the default disk every idle, active and standby segment names its
// ladder state: the RPM level it spins at, or the park it rests in.
TEST(JsonlSink, StateSegmentsCarryLadderStateNames) {
  std::istringstream lines(export_fixed_run<obs::JsonlSink>());
  int named = 0;
  for (std::string line; std::getline(lines, line);) {
    const Json event = Json::parse(line);
    const std::string& state = event.at("state").as_string();
    if (event.at("kind").as_string() != "state_segment" ||
        (state != "idle" && state != "active" && state != "standby")) {
      continue;
    }
    const std::string expected =
        state == "standby"
            ? params().park_name(0)
            : "rpm_" + std::to_string(params().rpm_of_level(
                           static_cast<int>(event.at("level").as_int())));
    EXPECT_EQ(event.at("label").as_string(), expected) << line;
    ++named;
  }
  EXPECT_GT(named, 0);
}

TEST(TimelineCsvSink, MergesAndCoversTheRun) {
  const trace::Trace t = gap_trace(2, 4, 30'000.0);
  std::ostringstream os;
  obs::TimelineCsvSink sink(os);
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  policy::TpmPolicy policy;
  sim::SimOptions options;
  options.tracer = &tracer;
  const sim::SimReport report = sim::simulate(t, params(), policy, options);
  tracer.close();

  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "disk,state,level,start_ms,end_ms,duration_ms,energy_j");
  // Per disk: rows tile [0, execution_ms] with no gaps or overlaps, and
  // consecutive rows never repeat the same (state, level).
  std::vector<TimeMs> cursor(2, 0.0);
  std::vector<std::string> prev_key(2);
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    const std::size_t c4 = line.find(',', c3 + 1);
    const int disk_id = std::stoi(line.substr(0, c1));
    const std::string key = line.substr(c1 + 1, c3 - c1 - 1);  // state,level
    const double start = std::stod(line.substr(c3 + 1, c4 - c3 - 1));
    const double end = std::stod(line.substr(c4 + 1));
    ASSERT_GE(disk_id, 0);
    ASSERT_LT(disk_id, 2);
    EXPECT_NEAR(start, cursor[static_cast<std::size_t>(disk_id)], 1e-6);
    EXPECT_NE(key, prev_key[static_cast<std::size_t>(disk_id)])
        << "unmerged adjacent rows";
    cursor[static_cast<std::size_t>(disk_id)] = end;
    prev_key[static_cast<std::size_t>(disk_id)] = key;
  }
  EXPECT_GT(rows, 2);
  // Timestamps pass through the CSV's %.9g rendering: 9 significant
  // digits, so ~1e-3 ms of absolute slack at a ~2e5 ms run length.
  EXPECT_NEAR(cursor[0], report.execution_ms, 1e-2);
  EXPECT_NEAR(cursor[1], report.execution_ms, 1e-2);
}

// ---------------------------------------------------------------------------
// Reactive DRPM in both loops

/// One RPM-window decision per full window after the first, which only sets
/// the reference: every serviced request must reach the policy.
std::int64_t expected_windows(const sim::SimReport& report) {
  std::int64_t windows = 0;
  for (const sim::DiskReport& d : report.disks) {
    windows +=
        std::max<std::int64_t>(0, d.services / params().window_size() - 1);
  }
  return windows;
}

TEST(TracedDrpm, DecidesEveryWindowInBothLoops) {
  const workloads::Benchmark bench = workloads::make_swim();
  const layout::LayoutTable table(bench.program, layout::Striping{}, 8);
  const trace::Trace t = trace::TraceGenerator(bench.program, table).generate();
  for (const sim::ReplayMode mode :
       {sim::ReplayMode::kClosedLoop, sim::ReplayMode::kOpenLoop}) {
    SCOPED_TRACE(mode == sim::ReplayMode::kOpenLoop ? "open loop"
                                                    : "closed loop");
    obs::CountingSink sink;
    obs::EventTracer tracer;
    tracer.add_sink(sink);
    policy::DrpmPolicy policy;
    const sim::SimReport report = sim::simulate(
        t, params(), policy, sim::SimOptions{.mode = mode, .tracer = &tracer});
    EXPECT_GT(sink.count(obs::EventKind::kRpmWindow), 0);
    EXPECT_EQ(sink.count(obs::EventKind::kRpmWindow), expected_windows(report));
  }
}

/// Reactive DRPM that also executes the trace's compiler directives, so
/// one run parks a disk (its wake retries failed spin-ups), hits media
/// errors and decides RPM windows.  No idle steps: a parked disk must not
/// be asked for an RPM change.
class DirectedDrpm final : public sim::PowerPolicy {
 public:
  void set_tracer(obs::EventTracer* tracer) override {
    drpm_.set_tracer(tracer);
  }
  void attach(sim::DiskUnit& disk) override { drpm_.attach(disk); }
  void after_service(sim::DiskUnit& disk, TimeMs completion,
                     TimeMs response_ms) override {
    drpm_.after_service(disk, completion, response_ms);
  }
  void on_power_event(sim::DiskUnit& disk, TimeMs now,
                      const ir::PowerDirective& directive) override {
    directives_.on_power_event(disk, now, directive);
  }
  const char* name() const override { return "DRPM"; }

 private:
  policy::DrpmPolicy drpm_{0.0};
  policy::ProactivePolicy directives_;
};

/// The args of every `kind` event: each JSONL line's `value` (and `level`
/// and `label` for RPM windows), and each Chrome record's args, in order.
struct FaultArgs {
  std::vector<std::string> jsonl;
  std::vector<std::string> chrome;
};

FaultArgs fault_args(const std::string& jsonl, const std::string& chrome,
                     const std::string& kind) {
  FaultArgs args;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    const Json e = Json::parse(line);
    if (e.at("kind").as_string() != kind) continue;
    std::string row = str_printf("%.9g", e.at("value").as_double());
    if (kind == "rpm_window") {
      row = e.at("label").as_string() + " " + row + " " +
            std::to_string(e.at("level").as_int());
    }
    args.jsonl.push_back(row);
  }
  const Json trace = Json::parse(chrome);
  for (const Json& e : trace.at("traceEvents").as_array()) {
    const std::string& name = e.at("name").as_string();
    if (name.rfind(kind, 0) != 0) continue;
    const Json& a = e.at("args");
    if (kind == "spin_up_retry") {
      args.chrome.push_back(str_printf("%.9g", a.at("backoff_ms").as_double()));
    } else if (kind == "media_error") {
      args.chrome.push_back(str_printf("%.9g", a.at("new_remap").as_double()));
    } else {
      args.chrome.push_back(name.substr(kind.size() + 1) + " " +
                            str_printf("%.9g", a.at("delta").as_double()) +
                            " " + std::to_string(a.at("level").as_int()));
    }
  }
  return args;
}

// Both sinks render the fault and decision events with their args: one
// disk serves 90 requests, is parked by a directive, and wakes 30 s later
// with every spin-up attempt failing up to the retry cap.
TEST(TracedDrpm, FaultEventsCarryTheirArgs) {
  trace::Trace t;
  t.total_disks = 1;
  for (int i = 0; i < 180; ++i) {
    const TimeMs at = i < 90 ? 10.0 * i : 30'000.0 + 10.0 * i;
    t.requests.push_back(make_request(at, 0, 1'000 * i, kib(64)));
  }
  t.power_events.push_back(
      make_power(1'000.0, ir::PowerDirective::Kind::kSpinDown, 0));
  t.compute_total_ms = 40'000.0;
  sim::SimOptions options;
  options.faults.spin_up_failure_prob = 1.0;
  options.faults.media_error_prob = 0.2;
  options.faults.seed = 7;
  for (const sim::ReplayMode mode :
       {sim::ReplayMode::kClosedLoop, sim::ReplayMode::kOpenLoop}) {
    SCOPED_TRACE(mode == sim::ReplayMode::kOpenLoop ? "open loop"
                                                    : "closed loop");
    std::ostringstream jsonl;
    std::ostringstream chrome;
    obs::JsonlSink jsonl_sink(jsonl);
    obs::ChromeTraceSink chrome_sink(chrome);
    obs::EventTracer tracer;
    tracer.add_sink(jsonl_sink);
    tracer.add_sink(chrome_sink);
    options.mode = mode;
    options.tracer = &tracer;
    DirectedDrpm policy;
    const sim::SimReport report = sim::simulate(t, params(), policy, options);
    tracer.close();

    const FaultArgs retries =
        fault_args(jsonl.str(), chrome.str(), "spin_up_retry");
    ASSERT_EQ(static_cast<std::int64_t>(retries.jsonl.size()),
              report.spin_up_retries());
    EXPECT_EQ(retries.jsonl.size(),
              static_cast<std::size_t>(options.faults.max_spin_up_retries));
    EXPECT_EQ(retries.chrome, retries.jsonl);
    for (std::size_t k = 0; k < retries.jsonl.size(); ++k) {
      // Each failed attempt backs off base * factor^k before the next.
      EXPECT_EQ(retries.jsonl[k],
                str_printf("%.9g", 100.0 * static_cast<double>(1 << k)));
    }

    const FaultArgs media =
        fault_args(jsonl.str(), chrome.str(), "media_error");
    ASSERT_EQ(static_cast<std::int64_t>(media.jsonl.size()),
              report.media_errors());
    EXPECT_GT(media.jsonl.size(), 0u);
    EXPECT_EQ(media.chrome, media.jsonl);
    // Every request names a fresh sector, so each error remaps anew.
    for (const std::string& remap : media.jsonl) EXPECT_EQ(remap, "1");

    const FaultArgs windows =
        fault_args(jsonl.str(), chrome.str(), "rpm_window");
    EXPECT_EQ(static_cast<std::int64_t>(windows.jsonl.size()),
              expected_windows(report));
    EXPECT_EQ(windows.chrome, windows.jsonl);
  }
}

// ---------------------------------------------------------------------------
// Pre-activation accounting

struct PreactRun {
  obs::PreactivationReport report;
  sim::SimReport sim;
};

/// Open-loop replay of a synthetic trace under ProactivePolicy: power
/// events fire at their recorded timestamps, so hit/late/wasted outcomes
/// are exactly computable from spin_up_time (10.9 s) / spin_down_time
/// (1.5 s).
PreactRun preact_run(const trace::Trace& t) {
  obs::PreactivationAccountant accountant;
  obs::EventTracer tracer;
  tracer.add_sink(accountant);
  policy::ProactivePolicy policy;
  sim::SimOptions options;
  options.mode = sim::ReplayMode::kOpenLoop;
  options.tracer = &tracer;
  PreactRun run;
  run.sim = sim::simulate(t, params(), policy, options);
  tracer.close();
  run.report = accountant.report();
  return run;
}

trace::Trace preact_base(TimeMs compute_ms) {
  trace::Trace t;
  t.total_disks = 1;
  t.compute_total_ms = compute_ms;
  t.requests.push_back(make_request(100.0, 0, 0, kib(64)));
  t.power_events.push_back(
      make_power(1'000.0, ir::PowerDirective::Kind::kSpinDown, 0));
  return t;
}

TEST(Preactivation, TimelySpinUpIsAHit) {
  // Spin-up at 5 s is ready at 15.9 s; the request lands at 20 s with
  // 4.1 s of slack.
  trace::Trace t = preact_base(25'000.0);
  t.power_events.push_back(
      make_power(5'000.0, ir::PowerDirective::Kind::kSpinUp, 0));
  t.requests.push_back(make_request(20'000.0, 0, 512, kib(64)));
  const PreactRun run = preact_run(t);
  EXPECT_EQ(run.report.issued(), 1);
  EXPECT_EQ(run.report.hits(), 1);
  EXPECT_EQ(run.report.late(), 0);
  EXPECT_EQ(run.report.wasted(), 0);
  EXPECT_EQ(run.report.demand_spin_ups(), 0);
  ASSERT_EQ(run.report.early_by_ms.count(), 1);
  EXPECT_NEAR(run.report.early_by_ms.mean(), 4'100.0, 1e-6);
}

TEST(Preactivation, InFlightSpinUpIsLate) {
  // Spin-up at 12 s is ready at 22.9 s; the request lands at 20 s and
  // stalls on the residual 2.9 s of transition.
  trace::Trace t = preact_base(30'000.0);
  t.power_events.push_back(
      make_power(12'000.0, ir::PowerDirective::Kind::kSpinUp, 0));
  t.requests.push_back(make_request(20'000.0, 0, 512, kib(64)));
  const PreactRun run = preact_run(t);
  EXPECT_EQ(run.report.issued(), 1);
  EXPECT_EQ(run.report.hits(), 0);
  EXPECT_EQ(run.report.late(), 1);
  EXPECT_EQ(run.report.wasted(), 0);
  ASSERT_EQ(run.report.late_by_ms.count(), 1);
  EXPECT_NEAR(run.report.late_by_ms.mean(), 2'900.0, 1e-6);
}

TEST(Preactivation, SpinUpWithNoRequestIsWasted) {
  trace::Trace t = preact_base(30'000.0);
  t.power_events.push_back(
      make_power(5'000.0, ir::PowerDirective::Kind::kSpinUp, 0));
  const PreactRun run = preact_run(t);
  EXPECT_EQ(run.report.issued(), 1);
  EXPECT_EQ(run.report.hits(), 0);
  EXPECT_EQ(run.report.wasted(), 1);
}

TEST(Preactivation, ReSpinDownBeforeRequestIsWasted) {
  // The pre-activation completes at 15.9 s but the compiler spins the
  // disk back down at 18 s; the request at 40 s pays a demand spin-up.
  trace::Trace t = preact_base(60'000.0);
  t.power_events.push_back(
      make_power(5'000.0, ir::PowerDirective::Kind::kSpinUp, 0));
  t.power_events.push_back(
      make_power(18'000.0, ir::PowerDirective::Kind::kSpinDown, 0));
  t.requests.push_back(make_request(40'000.0, 0, 512, kib(64)));
  const PreactRun run = preact_run(t);
  EXPECT_EQ(run.report.issued(), 1);
  EXPECT_EQ(run.report.hits(), 0);
  EXPECT_EQ(run.report.wasted(), 1);
  EXPECT_EQ(run.report.demand_spin_ups(), 1);
  EXPECT_EQ(run.sim.disks[0].demand_spin_ups, 1);
}

TEST(Preactivation, DemandWakeWithoutPreactivation) {
  trace::Trace t = preact_base(40'000.0);
  t.requests.push_back(make_request(25'000.0, 0, 512, kib(64)));
  const PreactRun run = preact_run(t);
  EXPECT_EQ(run.report.issued(), 0);
  EXPECT_EQ(run.report.demand_spin_ups(), 1);
  EXPECT_EQ(run.report.hits(), 0);
  EXPECT_EQ(run.report.wasted(), 0);
}

TEST(Preactivation, EnergyMatrixReconcilesWithBreakdown) {
  // The matrix rebuilt from the state-segment stream must agree with the
  // simulator's own EnergyBreakdown bit for bit: segments are emitted with
  // the exact (dt, energy) values the breakdown accumulates, in the same
  // order, so even the floating-point sums are identical.
  const trace::Trace t = gap_trace(3, 6, 30'000.0);
  obs::PreactivationAccountant accountant;
  obs::EventTracer tracer;
  tracer.add_sink(accountant);
  policy::TpmPolicy policy;
  sim::SimOptions options;
  options.tracer = &tracer;
  const sim::SimReport report = sim::simulate(t, params(), policy, options);
  tracer.close();
  const obs::PreactivationReport& pr = accountant.report();
  ASSERT_EQ(pr.energy.size(), report.disks.size());
  for (std::size_t d = 0; d < report.disks.size(); ++d) {
    const disk::EnergyBreakdown& b = report.disks[d].breakdown;
    const obs::PreactivationReport::StateEnergy& m = pr.energy[d];
    EXPECT_EQ(m.ms[0], b.active_ms);
    EXPECT_EQ(m.ms[1], b.idle_ms);
    EXPECT_EQ(m.ms[2], b.standby_ms);
    EXPECT_EQ(m.ms[3], b.spin_down_ms);
    EXPECT_EQ(m.ms[4], b.spin_up_ms);
    EXPECT_EQ(m.ms[5], b.rpm_shift_ms);
    EXPECT_EQ(m.j[0], b.active_j);
    EXPECT_EQ(m.j[1], b.idle_j);
    EXPECT_EQ(m.j[2], b.standby_j);
    EXPECT_EQ(m.j[3], b.spin_down_j);
    EXPECT_EQ(m.j[4], b.spin_up_j);
    EXPECT_EQ(m.j[5], b.rpm_shift_j);
  }
  EXPECT_NE(pr.to_string().find("pre-activation accounting"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, CounterHandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Counter& c = reg.counter("a.count");
  c.fetch_add(3, std::memory_order_relaxed);
  // Creating many more metrics must not invalidate the handle.
  for (int i = 0; i < 100; ++i) {
    reg.add("filler." + std::to_string(i));
  }
  c.fetch_add(4, std::memory_order_relaxed);
  EXPECT_EQ(reg.snapshot().counters.at("a.count"), 7);
  EXPECT_EQ(&reg.counter("a.count"), &c);
}

TEST(MetricsRegistry, GaugesLastWriteWins) {
  obs::MetricsRegistry reg;
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", 2.5);
  EXPECT_EQ(reg.snapshot().gauges.at("g"), 2.5);
}

TEST(MetricsRegistry, HistogramStats) {
  obs::MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i) {
    reg.observe("h", static_cast<double>(i));
  }
  const obs::MetricsRegistry::HistogramStats h =
      reg.snapshot().histograms.at("h");
  EXPECT_EQ(h.count, 100);
  EXPECT_NEAR(h.mean, 50.5, 1e-9);
  EXPECT_GT(h.p95, h.p50);
  EXPECT_GE(h.p99, h.p95);
  EXPECT_EQ(h.max, 100.0);
}

TEST(MetricsRegistry, JsonIsDeterministicAndSorted) {
  obs::MetricsRegistry reg;
  reg.add("z.last", 2);
  reg.add("a.first", 1);
  reg.set_gauge("mid", 0.5);
  reg.observe("h", 10.0);
  const std::string json = reg.to_json();
  EXPECT_EQ(json, reg.to_json());
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, ResetForTestingKeepsHandlesValid) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Counter& c = reg.counter("keep");
  c.fetch_add(9, std::memory_order_relaxed);
  reg.set_gauge("g", 4.0);
  reg.observe("h", 2.0);
  reg.reset_for_testing();
  const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("keep"), 0);   // name survives, value zeroed
  EXPECT_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0);
  c.fetch_add(1, std::memory_order_relaxed);  // handle still valid
  EXPECT_EQ(reg.snapshot().counters.at("keep"), 1);
}

TEST(MetricsRegistry, RecordReportMetrics) {
  obs::MetricsRegistry reg;
  const trace::Trace t = gap_trace(2, 4, 30'000.0);
  policy::TpmPolicy policy;
  sim::SimOptions options;
  options.capture_responses = true;
  const sim::SimReport report = sim::simulate(t, params(), policy, options);
  obs::record_report_metrics(reg, report);
  const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("sim.reports_recorded"), 1);
  EXPECT_EQ(snap.counters.at("sim.report_requests"), report.requests);
  EXPECT_EQ(snap.counters.at("sim.spin_up_retries"), 0);
  EXPECT_EQ(snap.gauges.at("sim.last_energy_j"), report.total_energy);
  EXPECT_EQ(snap.histograms.at("sim.response_ms").count, report.requests);
}

}  // namespace
}  // namespace sdpm
