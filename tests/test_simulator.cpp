// Closed-loop simulator: think time, blocking I/O, energy accounting.
#include <gtest/gtest.h>

#include <string>

#include "layout/layout_table.h"
#include "policy/base.h"
#include "sim/simulator.h"
#include "tests/forwarding_policy.h"
#include "trace/generator.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::sim {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Trace empty_trace(int disks, TimeMs compute_ms) {
  trace::Trace t;
  t.total_disks = disks;
  t.compute_total_ms = compute_ms;
  return t;
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

TEST(Simulator, NoRequestsPureIdle) {
  const trace::Trace t = empty_trace(4, 10'000.0);
  policy::BasePolicy policy;
  const SimReport report = simulate(t, params(), policy);
  EXPECT_EQ(report.requests, 0);
  EXPECT_NEAR(report.execution_ms, 10'000.0, 1e-9);
  EXPECT_NEAR(report.total_energy, 4 * 10.2 * 10.0, 1e-6);
  EXPECT_NEAR(report.io_stall_ms, 0.0, 1e-9);
}

TEST(Simulator, BlockingIoExtendsExecution) {
  trace::Trace t = empty_trace(1, 1'000.0);
  t.requests.push_back(make_request(500.0, 0, 0, kib(64)));
  policy::BasePolicy policy;
  const SimReport report =
      simulate(t, params(), policy, SimOptions{.capture_responses = true});
  const TimeMs service = params().service_time(kib(64), 10, false);
  EXPECT_NEAR(report.execution_ms, 1'000.0 + service, 1e-9);
  EXPECT_NEAR(report.io_stall_ms, service, 1e-9);
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_NEAR(report.responses[0], service, 1e-9);
}

TEST(Simulator, StallsCascadeThroughThinkTimes) {
  trace::Trace t = empty_trace(1, 1'000.0);
  // Two requests 100 ms of compute apart.
  t.requests.push_back(make_request(100.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(200.0, 0, 999'999, kib(64)));
  policy::BasePolicy policy;
  const SimReport report = simulate(
      t, params(), policy, SimOptions{.capture_busy_periods = true});
  const TimeMs service = params().service_time(kib(64), 10, false);
  // Second request arrives at (100 + service) + 100.
  EXPECT_NEAR(report.disks[0].busy_periods[1].start, 200.0 + service, 1e-9);
  EXPECT_NEAR(report.execution_ms, 1'000.0 + 2 * service, 1e-9);
}

TEST(Simulator, EnergyMatchesDurationTimesPower) {
  trace::Trace t = empty_trace(2, 5'000.0);
  t.requests.push_back(make_request(1'000.0, 0, 0, kib(64)));
  policy::BasePolicy policy;
  const SimReport report = simulate(t, params(), policy);
  const TimeMs service = params().service_time(kib(64), 10, false);
  const TimeMs end = 5'000.0 + service;
  const Joules expected_disk0 =
      joules_from_watt_ms(10.2, end - service) +
      joules_from_watt_ms(13.5, service);
  const Joules expected_disk1 = joules_from_watt_ms(10.2, end);
  EXPECT_NEAR(report.disks[0].breakdown.total_j(), expected_disk0, 1e-6);
  EXPECT_NEAR(report.disks[1].breakdown.total_j(), expected_disk1, 1e-6);
  EXPECT_NEAR(report.total_energy, expected_disk0 + expected_disk1, 1e-6);
}

TEST(Simulator, PerDiskTimeAccountingExhaustive) {
  trace::Trace t = empty_trace(3, 2'000.0);
  t.requests.push_back(make_request(100.0, 0, 0, kib(16)));
  t.requests.push_back(make_request(300.0, 2, 0, kib(16)));
  policy::BasePolicy policy;
  const SimReport report = simulate(t, params(), policy);
  for (const DiskReport& d : report.disks) {
    EXPECT_NEAR(d.breakdown.total_ms(), report.execution_ms, 1e-6);
  }
}

// Every item's target disk is checked before the replay indexes by it,
// in both loops and both engines; `sdpm_cli replay` feeds these checks
// traces from outside the program.
TEST(Simulator, RejectsUnknownDisk) {
  struct Case {
    bool power_event;
    int disk;
  };
  for (const Case c : {Case{false, 5}, Case{false, -1}, Case{false, 2},
                       Case{true, 5}, Case{true, -1}, Case{true, 2}}) {
    trace::Trace t = empty_trace(2, 1'000.0);
    t.requests.push_back(make_request(0.0, 0, 0, kib(16)));
    if (c.power_event) {
      trace::PowerEvent ev;
      ev.app_time_ms = 10.0;
      ev.directive =
          ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, c.disk, 0};
      t.power_events.push_back(ev);
    } else {
      t.requests.push_back(make_request(10.0, c.disk, 0, kib(16)));
    }
    const std::string expected = c.power_event
                                     ? "power event targets unknown disk"
                                     : "request targets unknown disk";
    for (const ReplayMode mode :
         {ReplayMode::kClosedLoop, ReplayMode::kOpenLoop}) {
      for (const bool virtual_engine : {false, true}) {
        SCOPED_TRACE(expected + " " + std::to_string(c.disk) +
                     (mode == ReplayMode::kOpenLoop ? ", open loop"
                                                    : ", closed loop") +
                     (virtual_engine ? ", virtual engine" : ", kernel"));
        policy::BasePolicy base;
        test::ForwardingPolicy<policy::BasePolicy> forwarding;
        PowerPolicy& policy =
            virtual_engine ? static_cast<PowerPolicy&>(forwarding) : base;
        try {
          simulate(t, params(), policy, SimOptions{.mode = mode});
          ADD_FAILURE() << "no error thrown";
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(Simulator, PowerEventsReachPolicy) {
  struct CountingPolicy final : PowerPolicy {
    int events = 0;
    void on_power_event(DiskUnit&, TimeMs,
                        const ir::PowerDirective&) override {
      ++events;
    }
    const char* name() const override { return "count"; }
  };
  trace::Trace t = empty_trace(2, 1'000.0);
  trace::PowerEvent ev;
  ev.app_time_ms = 500.0;
  ev.directive = ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, 1, 0};
  t.power_events.push_back(ev);
  CountingPolicy policy;
  simulate(t, params(), policy);
  EXPECT_EQ(policy.events, 1);
}

TEST(Simulator, PowerEventBeforeRequestAtSameTime) {
  struct OrderPolicy final : PowerPolicy {
    std::vector<char> order;
    void on_power_event(DiskUnit&, TimeMs,
                        const ir::PowerDirective&) override {
      order.push_back('p');
    }
    void before_service(DiskUnit&, TimeMs) override { order.push_back('r'); }
    const char* name() const override { return "order"; }
  };
  trace::Trace t = empty_trace(1, 1'000.0);
  t.requests.push_back(make_request(500.0, 0, 0, kib(16)));
  trace::PowerEvent ev;
  ev.app_time_ms = 500.0;
  ev.directive = ir::PowerDirective{ir::PowerDirective::Kind::kSpinUp, 0, 0};
  t.power_events.push_back(ev);
  OrderPolicy policy;
  simulate(t, params(), policy);
  ASSERT_EQ(policy.order.size(), 2u);
  EXPECT_EQ(policy.order[0], 'p');
  EXPECT_EQ(policy.order[1], 'r');
}

TEST(Simulator, ResponsesAreOptIn) {
  // Without capture_responses the vector stays empty while the aggregate
  // statistics are still kept.
  const workloads::Benchmark bench = workloads::make_galgel();
  trace::GeneratorOptions gen;
  gen.cache_bytes = kib(512);
  const layout::LayoutTable table(bench.program,
                                  layout::Striping{0, 8, kib(64)}, 8);
  const trace::Trace t =
      trace::TraceGenerator(bench.program, table, gen).generate();
  policy::BasePolicy policy;
  const SimReport report = simulate(t, params(), policy);
  EXPECT_TRUE(report.responses.empty());
  EXPECT_GT(report.requests, 0);
  EXPECT_GT(report.response_ms.count(), 0);
}

TEST(Simulator, ReportNamesPolicy) {
  const trace::Trace t = empty_trace(1, 100.0);
  policy::BasePolicy policy;
  EXPECT_EQ(simulate(t, params(), policy).policy_name, "Base");
}

}  // namespace
}  // namespace sdpm::sim
