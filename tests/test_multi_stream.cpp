// Multi-stream (multiprogrammed) simulation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/schedule.h"
#include "experiments/runner.h"
#include "layout/layout_table.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/invariants.h"
#include "sim/multi_stream.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::sim {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Trace stream_with_requests(int disk, std::vector<TimeMs> arrivals,
                                  TimeMs compute_total, int total_disks = 2) {
  trace::Trace t;
  t.total_disks = total_disks;
  BlockNo sector = 0;
  for (const TimeMs a : arrivals) {
    trace::Request r;
    r.arrival_ms = a;
    r.disk = disk;
    r.start_sector = sector;
    r.size_bytes = kib(64);
    sector += 10'000'000;
    t.requests.push_back(r);
  }
  t.compute_total_ms = compute_total;
  return t;
}

/// `bench` on the default 8-disk array with a 5 ms prefetch lead: its
/// plain trace, or with `scheduled` the trace of its CMDRPM schedule.
trace::Trace prefetched_trace(const std::string& bench, bool scheduled) {
  const experiments::ExperimentConfig config;
  const workloads::Benchmark b = workloads::make_benchmark(bench);
  const layout::LayoutTable table(b.program, config.striping,
                                  config.total_disks);
  trace::GeneratorOptions gen = config.gen;
  gen.prefetch_lead_ms = 5.0;
  if (!scheduled) {
    return trace::TraceGenerator(b.program, table, gen).generate();
  }
  core::SchedulerOptions so;
  so.access = config.gen;
  const core::ScheduleResult schedule =
      core::schedule_power_calls(b.program, table, config.disk, so);
  return trace::TraceGenerator(schedule.program, table, gen).generate();
}

/// One stream replays exactly as the simulator's closed loop does, and
/// both reports satisfy the invariants.
void expect_single_stream_matches(const trace::Trace& t,
                                  PowerPolicy& for_simulate,
                                  PowerPolicy& for_streams) {
  const SimReport single = simulate(
      t, params(), for_simulate, SimOptions{.capture_busy_periods = true});
  const std::vector<trace::Trace> traces = {t};
  const MultiStreamReport multi =
      simulate_streams(traces, params(), for_streams);
  check_invariants(single, params());
  check_invariants(multi, params());
  EXPECT_EQ(multi.makespan_ms, single.execution_ms);
  EXPECT_EQ(multi.streams[0].completion_ms, single.execution_ms);
  EXPECT_EQ(multi.total_energy, single.total_energy);
  EXPECT_EQ(multi.streams[0].requests, single.requests);
  EXPECT_EQ(multi.streams[0].response_ms.sum(), single.response_ms.sum());
  EXPECT_EQ(multi.streams[0].response_ms.max(), single.response_ms.max());
  ASSERT_EQ(multi.disks.size(), single.disks.size());
  for (std::size_t d = 0; d < multi.disks.size(); ++d) {
    const DiskReport& a = multi.disks[d];
    const DiskReport& b = single.disks[d];
    EXPECT_EQ(a.breakdown.total_j(), b.breakdown.total_j()) << "disk " << d;
    EXPECT_EQ(a.level_residency_ms, b.level_residency_ms) << "disk " << d;
    EXPECT_EQ(a.services, b.services) << "disk " << d;
    EXPECT_EQ(a.rpm_transitions, b.rpm_transitions) << "disk " << d;
    EXPECT_EQ(a.spin_downs, b.spin_downs) << "disk " << d;
    ASSERT_EQ(a.busy_periods.size(), b.busy_periods.size()) << "disk " << d;
    for (std::size_t i = 0; i < a.busy_periods.size(); ++i) {
      ASSERT_EQ(a.busy_periods[i].start, b.busy_periods[i].start);
      ASSERT_EQ(a.busy_periods[i].completion, b.busy_periods[i].completion);
    }
  }
}

TEST(MultiStream, SingleStreamMatchesSimulator) {
  {
    const trace::Trace t = stream_with_requests(0, {10.0, 50.0}, 100.0);
    policy::BasePolicy p1;
    policy::BasePolicy p2;
    expect_single_stream_matches(t, p1, p2);
  }
  // Generated traces with a prefetch lead, so the stream's stalls are what
  // remains of each service at demand time, and under every kind of
  // policy: none, reactive spin-down, reactive RPM windows and the
  // compiler's directives.
  for (const char* bench : {"swim", "galgel"}) {
    SCOPED_TRACE(bench);
    const trace::Trace plain = prefetched_trace(bench, false);
    {
      policy::BasePolicy p1;
      policy::BasePolicy p2;
      expect_single_stream_matches(plain, p1, p2);
    }
    {
      policy::TpmPolicy p1;
      policy::TpmPolicy p2;
      expect_single_stream_matches(plain, p1, p2);
    }
    {
      policy::DrpmPolicy p1;
      policy::DrpmPolicy p2;
      expect_single_stream_matches(plain, p1, p2);
    }
    {
      const trace::Trace scheduled = prefetched_trace(bench, true);
      ASSERT_FALSE(scheduled.power_events.empty());
      policy::ProactivePolicy p1("CMDRPM");
      policy::ProactivePolicy p2("CMDRPM");
      expect_single_stream_matches(scheduled, p1, p2);
    }
  }
}

TEST(MultiStream, DisjointDisksRunConcurrently) {
  const trace::Trace a = stream_with_requests(0, {0.0}, 100.0);
  const trace::Trace b = stream_with_requests(1, {0.0}, 100.0);
  policy::BasePolicy policy;
  const std::vector<trace::Trace> traces = {a, b};
  const MultiStreamReport report =
      simulate_streams(traces, params(), policy);
  check_invariants(report, params());
  // Both streams finish at 100 + one service — no mutual interference.
  const TimeMs expected =
      100.0 + params().service_time(kib(64), params().max_level(), false);
  EXPECT_NEAR(report.streams[0].completion_ms, expected, 1e-9);
  EXPECT_NEAR(report.streams[1].completion_ms, expected, 1e-9);
}

TEST(MultiStream, SharedDiskContentionSerializes) {
  const trace::Trace a = stream_with_requests(0, {0.0}, 50.0);
  const trace::Trace b = stream_with_requests(0, {0.0}, 50.0);
  policy::BasePolicy policy;
  const std::vector<trace::Trace> traces = {a, b};
  const MultiStreamReport report =
      simulate_streams(traces, params(), policy);
  check_invariants(report, params());
  const TimeMs service =
      params().service_time(kib(64), params().max_level(), false);
  // One of the streams queues behind the other.
  const TimeMs slower = std::max(report.streams[0].completion_ms,
                                 report.streams[1].completion_ms);
  EXPECT_GE(slower, 50.0 + 2 * service - 1e-6);
}

TEST(MultiStream, EnergyAccountingExhaustive) {
  const trace::Trace a = stream_with_requests(0, {5.0, 25.0}, 200.0);
  const trace::Trace b = stream_with_requests(1, {10.0}, 120.0);
  policy::BasePolicy policy;
  const std::vector<trace::Trace> traces = {a, b};
  const MultiStreamReport report =
      simulate_streams(traces, params(), policy);
  check_invariants(report, params());
  Joules sum = 0;
  for (const auto& d : report.disks) {
    EXPECT_NEAR(d.breakdown.total_ms(), report.makespan_ms, 1e-6);
    sum += d.breakdown.total_j();
  }
  EXPECT_NEAR(sum, report.total_energy, 1e-9);
}

TEST(MultiStream, InterferenceSlowsTheVictim) {
  // Stream A alone vs A co-running with an I/O-heavy B on the same disk.
  const trace::Trace a =
      stream_with_requests(0, {10.0, 20.0, 30.0}, 100.0);
  trace::Trace b = stream_with_requests(0, {}, 100.0);
  for (int i = 0; i < 20; ++i) {
    trace::Request r;
    r.arrival_ms = 0.0;  // back-to-back: B keeps the disk saturated
    r.disk = 0;
    r.start_sector = 50'000'000 + i * 1'000'000;
    r.size_bytes = kib(64);
    b.requests.push_back(r);
  }
  policy::BasePolicy p1;
  const std::vector<trace::Trace> alone = {a};
  const TimeMs solo =
      simulate_streams(alone, params(), p1).streams[0].completion_ms;
  policy::BasePolicy p2;
  const std::vector<trace::Trace> both = {a, b};
  const MultiStreamReport corun = simulate_streams(both, params(), p2);
  check_invariants(corun, params());
  EXPECT_GT(corun.streams[0].completion_ms, solo + 1.0);
}

TEST(MultiStream, PoliciesSeeMergedLoad) {
  // TPM sees the merged stream: with both streams hitting the same disk
  // every 8 s, the combined gaps stay below any spin-down threshold.
  const trace::Trace a =
      stream_with_requests(0, {0.0, 16'000.0, 32'000.0}, 40'000.0);
  const trace::Trace b =
      stream_with_requests(0, {8'000.0, 24'000.0}, 40'000.0);
  policy::TpmPolicy policy(10'000.0);
  const std::vector<trace::Trace> traces = {a, b};
  const MultiStreamReport report =
      simulate_streams(traces, params(), policy);
  check_invariants(report, params());
  EXPECT_EQ(report.disks[0].spin_downs, 0);

  // Alone, stream A's 16 s gaps would trigger that threshold.
  policy::TpmPolicy solo_policy(10'000.0);
  const std::vector<trace::Trace> alone = {a};
  const MultiStreamReport solo =
      simulate_streams(alone, params(), solo_policy);
  check_invariants(solo, params());
  EXPECT_GT(solo.disks[0].spin_downs, 0);
}

TEST(MultiStream, MismatchedDiskCountsRejected) {
  const trace::Trace a = stream_with_requests(0, {0.0}, 10.0, 2);
  const trace::Trace b = stream_with_requests(0, {0.0}, 10.0, 4);
  policy::BasePolicy policy;
  const std::vector<trace::Trace> traces = {a, b};
  EXPECT_THROW(simulate_streams(traces, params(), policy), Error);
}

TEST(MultiStream, StreamNamesCarriedThrough) {
  const trace::Trace a = stream_with_requests(0, {0.0}, 10.0);
  const std::vector<trace::Trace> traces = {a, a};
  const std::vector<std::string> names = {"alpha", "beta"};
  policy::BasePolicy policy;
  const MultiStreamReport report =
      simulate_streams(traces, params(), policy, names);
  check_invariants(report, params());
  EXPECT_EQ(report.streams[0].name, "alpha");
  EXPECT_EQ(report.streams[1].name, "beta");
}

}  // namespace
}  // namespace sdpm::sim
