// Reactive policies: TPM threshold behaviour, DRPM window heuristic and
// idle stepping, proactive call execution.
#include <gtest/gtest.h>

#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/invariants.h"
#include "sim/simulator.h"

namespace sdpm::policy {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Trace trace_with_gap(TimeMs gap_ms) {
  trace::Trace t;
  t.total_disks = 1;
  trace::Request r1;
  r1.arrival_ms = 0.0;
  r1.size_bytes = kib(64);
  trace::Request r2 = r1;
  r2.arrival_ms = gap_ms;
  r2.start_sector = 1'000'000;
  t.requests = {r1, r2};
  t.compute_total_ms = gap_ms + 1'000.0;
  return t;
}

TEST(TpmPolicy, NoSpinDownBelowThreshold) {
  const trace::Trace t = trace_with_gap(10'000.0);  // < 15.2 s break-even
  TpmPolicy policy;
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 0);
  EXPECT_EQ(report.disks[0].demand_spin_ups, 0);
}

TEST(TpmPolicy, SpinsDownAfterThresholdAndPaysDemandSpinUp) {
  const trace::Trace t = trace_with_gap(60'000.0);
  TpmPolicy policy;
  const sim::SimReport report = sim::simulate(
      t, params(), policy, sim::SimOptions{.capture_responses = true});
  EXPECT_EQ(report.disks[0].spin_downs, 1);
  EXPECT_EQ(report.disks[0].demand_spin_ups, 1);
  // The second request pays the full spin-up latency.
  EXPECT_GT(report.responses[1], 10'900.0);
  // Standby residency: gap - threshold (minus the spin-down itself).
  EXPECT_GT(report.disks[0].breakdown.standby_ms, 0.0);
}

TEST(TpmPolicy, SavesEnergyOnLongGaps) {
  const trace::Trace t = trace_with_gap(120'000.0);
  TpmPolicy tpm;
  BasePolicy base;
  const Joules with_tpm = sim::simulate(t, params(), tpm).total_energy;
  const Joules without = sim::simulate(t, params(), base).total_energy;
  EXPECT_LT(with_tpm, without);
}

TEST(TpmPolicy, CustomThreshold) {
  const trace::Trace t = trace_with_gap(5'000.0);
  TpmPolicy policy(1'000.0);  // aggressive threshold
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 1);
}

TEST(TpmPolicy, FinalizeHandlesTrailingIdle) {
  trace::Trace t;
  t.total_disks = 1;
  trace::Request r;
  r.arrival_ms = 0.0;
  r.size_bytes = kib(64);
  t.requests = {r};
  t.compute_total_ms = 60'000.0;  // long trailing idle
  TpmPolicy policy;
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 1);
  EXPECT_GT(report.disks[0].breakdown.standby_ms, 0.0);
}

TEST(DrpmPolicy, IdleSteppingReducesSpeedDuringGaps) {
  const trace::Trace t = trace_with_gap(3'000.0);
  DrpmPolicy policy(500.0);
  const sim::SimReport report = sim::simulate(t, params(), policy);
  // 3 s of idleness at 500 ms per step: several transitions happened.
  EXPECT_GE(report.disks[0].rpm_transitions, 3);
  BasePolicy base;
  EXPECT_LT(report.total_energy,
            sim::simulate(t, params(), base).total_energy);
}

TEST(DrpmPolicy, NoIdleSteppingWhenDisabled) {
  const trace::Trace t = trace_with_gap(3'000.0);
  DrpmPolicy policy(0.0);
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].rpm_transitions, 0);  // too few for a window
}

// An idle step due at the run's end is taken only when its RPM shift
// (5 ms per step on the paper disk) completes inside the run, so every
// disk's time buckets end where the run ends.
TEST(DrpmPolicy, IdleStepsAtTheEndSettleInsideTheRun) {
  for (const TimeMs trailing : {1'000.0, 1'002.0, 1'005.5}) {
    SCOPED_TRACE(trailing);
    trace::Trace t;
    t.total_disks = 1;
    trace::Request r;
    r.size_bytes = kib(64);
    t.requests = {r};
    t.compute_total_ms = trailing;  // idle from the one service to the end
    DrpmPolicy policy(500.0);
    const sim::SimReport report = sim::simulate(t, params(), policy);
    EXPECT_NO_THROW(sim::check_invariants(report, params()));
    EXPECT_EQ(report.disks[0].rpm_transitions, trailing > 1'005.0 ? 2 : 1);
  }
}

TEST(DrpmPolicy, WindowHeuristicStepsDownOnStableResponses) {
  // Enough uniform requests to complete several 30-request windows.
  trace::Trace t;
  t.total_disks = 1;
  const int n = 150;
  for (int i = 0; i < n; ++i) {
    trace::Request r;
    r.arrival_ms = i * 50.0;
    r.start_sector = i * 1'000'000;  // force seeks, uniform responses
    r.size_bytes = kib(64);
    t.requests.push_back(r);
  }
  t.compute_total_ms = n * 50.0;
  DrpmPolicy policy(0.0);  // isolate the window heuristic
  const sim::SimReport report = sim::simulate(t, params(), policy);
  // First two windows establish the reference; later ones step down.
  EXPECT_GE(report.disks[0].rpm_transitions, 2);
  BasePolicy base;
  EXPECT_LT(report.total_energy,
            sim::simulate(t, params(), base).total_energy);
  // Serving at reduced speed costs time.
  EXPECT_GT(report.execution_ms,
            sim::simulate(t, params(), base).execution_ms);
}

TEST(ProactivePolicy, ExecutesDirectives) {
  trace::Trace t;
  t.total_disks = 1;
  t.compute_total_ms = 30'000.0;
  trace::PowerEvent down;
  down.app_time_ms = 1'000.0;
  down.directive = ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, 0, 0};
  trace::PowerEvent up;
  up.app_time_ms = 15'000.0;
  up.directive = ir::PowerDirective{ir::PowerDirective::Kind::kSpinUp, 0, 0};
  t.power_events = {down, up};
  ProactivePolicy policy("CMTPM");
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 1);
  EXPECT_NEAR(report.disks[0].breakdown.standby_ms,
              15'000.0 - 1'000.0 - 1'500.0, 1e-6);
  EXPECT_NEAR(report.disks[0].breakdown.spin_up_ms, 10'900.0, 1e-6);
}

TEST(ProactivePolicy, SetRpmDirective) {
  trace::Trace t;
  t.total_disks = 1;
  t.compute_total_ms = 10'000.0;
  trace::PowerEvent ev;
  ev.app_time_ms = 0.0;
  ev.directive = ir::PowerDirective{ir::PowerDirective::Kind::kSetRpm, 0, 0};
  t.power_events = {ev};
  ProactivePolicy policy("CMDRPM");
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].rpm_transitions, 1);
  // Most of the 10 s sits at the minimum level (~2.58 W).
  EXPECT_LT(report.total_energy, 40.0);
}

TEST(BasePolicy, DoesNothing) {
  const trace::Trace t = trace_with_gap(60'000.0);
  BasePolicy policy;
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 0);
  EXPECT_EQ(report.disks[0].rpm_transitions, 0);
  EXPECT_EQ(report.disks[0].demand_spin_ups, 0);
}

}  // namespace
}  // namespace sdpm::policy
