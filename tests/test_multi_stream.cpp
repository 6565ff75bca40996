// Multi-stream (multiprogrammed) simulation.
#include <gtest/gtest.h>

#include "policy/base.h"
#include "policy/tpm.h"
#include "sim/invariants.h"
#include "sim/multi_stream.h"
#include "sim/simulator.h"
#include "util/error.h"

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

TEST(MultiStream, SingleStreamMatchesSimulator) {
  const trace::Trace t = stream_with_requests(0, {10.0, 50.0}, 100.0);
  policy::BasePolicy p1;
  const SimReport single = simulate(t, params(), p1);
  policy::BasePolicy p2;
  const std::vector<trace::Trace> traces = {t};
  const MultiStreamReport multi =
      simulate_streams(traces, params(), p2);
  check_invariants(multi, params());
  EXPECT_NEAR(multi.makespan_ms, single.execution_ms, 1e-9);
  EXPECT_NEAR(multi.total_energy, single.total_energy, 1e-6);
  EXPECT_EQ(multi.streams[0].requests, 2);
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
