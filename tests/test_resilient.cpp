// ResilientPolicy: health scoring, demotion to adaptive TPM, hysteresis,
// directive suppression, and end-to-end value under spin-up faults.
#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "policy/base.h"
#include "policy/proactive.h"
#include "policy/resilient.h"
#include "sim/disk_unit.h"
#include "sim/faults.h"
#include "sim/simulator.h"

namespace sdpm::policy {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

/// Inner policy that counts forwarded power events.
struct CountingPolicy final : sim::PowerPolicy {
  int events = 0;
  void on_power_event(sim::DiskUnit&, TimeMs,
                      const ir::PowerDirective&) override {
    ++events;
  }
  const char* name() const override { return "count"; }
};

ir::PowerDirective spin_down_directive(int disk) {
  return ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, disk, 0};
}

TEST(ResilientPolicy, NameComposesInnerName) {
  BasePolicy inner;
  ResilientPolicy resilient(inner);
  EXPECT_STREQ(resilient.name(), "R+Base");
}

TEST(ResilientPolicy, DemotesAfterRetriesAndMisses) {
  sim::FaultConfig fc;
  fc.spin_up_failure_prob = 1.0;  // every attempt fails until the last
  fc.max_spin_up_retries = 2;
  sim::FaultModel model(fc);
  sim::DiskUnit unit(params(), 0, &model);

  BasePolicy inner;
  ResilientPolicy resilient(inner);
  resilient.attach(unit);
  EXPECT_FALSE(resilient.degraded(0));

  unit.park_to(0.0, params().default_park());
  const sim::DiskUnit::ServeResult r = unit.serve(60'000.0, 0, kib(64));
  resilient.after_service(unit, r.completion, r.completion - 60'000.0);
  // 2 retries x 1.0 + 1 demand miss x 0.5 = 2.5 >= demote_score (1.0).
  EXPECT_TRUE(resilient.degraded(0));
  EXPECT_EQ(resilient.demotions(), 1);
  EXPECT_EQ(resilient.promotions(), 0);
}

TEST(ResilientPolicy, RepromotesAfterStableWindow) {
  sim::FaultConfig fc;
  fc.spin_up_failure_prob = 1.0;
  fc.max_spin_up_retries = 2;
  sim::FaultModel model(fc);
  sim::DiskUnit unit(params(), 0, &model);

  BasePolicy inner;
  ResilientOptions options;
  options.stable_ms = 30'000.0;
  ResilientPolicy resilient(inner, options);
  resilient.attach(unit);

  unit.park_to(0.0, params().default_park());
  const sim::DiskUnit::ServeResult r = unit.serve(60'000.0, 0, kib(64));
  resilient.after_service(unit, r.completion, 0.0);
  ASSERT_TRUE(resilient.degraded(0));

  // Still inside the stable window: no promotion yet.
  resilient.before_service(unit, r.completion + 1'000.0);
  EXPECT_TRUE(resilient.degraded(0));
  // Quiet past the window: promoted back to the inner policy.
  resilient.before_service(unit, r.completion + 31'000.0);
  EXPECT_FALSE(resilient.degraded(0));
  EXPECT_EQ(resilient.promotions(), 1);
}

TEST(ResilientPolicy, SuppressesDirectivesOnlyWhileDegraded) {
  sim::FaultConfig fc;
  fc.spin_up_failure_prob = 1.0;
  fc.max_spin_up_retries = 3;
  sim::FaultModel model(fc);
  sim::DiskUnit unit(params(), 0, &model);

  CountingPolicy inner;
  ResilientPolicy resilient(inner);
  resilient.attach(unit);

  // Healthy: events are forwarded to the inner policy.
  resilient.on_power_event(unit, 10.0, spin_down_directive(0));
  EXPECT_EQ(inner.events, 1);
  EXPECT_EQ(resilient.suppressed_directives(), 0);

  unit.park_to(20.0, params().default_park());
  const sim::DiskUnit::ServeResult r = unit.serve(60'000.0, 0, kib(64));
  resilient.after_service(unit, r.completion, 0.0);
  ASSERT_TRUE(resilient.degraded(0));

  // Degraded: the compiler's plan is no longer trusted for this disk.
  resilient.on_power_event(unit, r.completion + 1.0,
                           spin_down_directive(0));
  EXPECT_EQ(inner.events, 1);  // unchanged
  EXPECT_EQ(resilient.suppressed_directives(), 1);
}

TEST(ResilientPolicy, QuietScoreDecaysBeforeDemotion) {
  // Two widely separated demand misses must not add up to a demotion: the
  // forgiveness window resets the score between them.  No fault model —
  // an unplanned demand wake alone is (weak) evidence against the plan.
  sim::DiskUnit unit(params(), 0, nullptr);

  BasePolicy inner;
  ResilientOptions options;
  options.stable_ms = 30'000.0;
  ResilientPolicy resilient(inner, options);
  resilient.attach(unit);

  unit.park_to(0.0, params().default_park());
  const sim::DiskUnit::ServeResult r1 = unit.serve(60'000.0, 0, kib(64));
  resilient.after_service(unit, r1.completion, 0.0);
  EXPECT_FALSE(resilient.degraded(0));  // 0.5 < 1.0

  // A long quiet stretch, then another demand miss: forgiven in between.
  unit.park_to(r1.completion, params().default_park());
  const sim::DiskUnit::ServeResult r2 =
      unit.serve(r1.completion + 100'000.0, 128, kib(64));
  resilient.after_service(unit, r2.completion, 0.0);
  EXPECT_FALSE(resilient.degraded(0));  // score was forgiven, 0.5 again
  EXPECT_EQ(resilient.demotions(), 0);

  // A second miss inside the window does accumulate: 0.5 + 0.5 demotes.
  unit.park_to(r2.completion, params().default_park());
  const sim::DiskUnit::ServeResult r3 =
      unit.serve(r2.completion + 15'000.0, 256, kib(64));
  resilient.after_service(unit, r3.completion, 0.0);
  EXPECT_TRUE(resilient.degraded(0));
  EXPECT_EQ(resilient.demotions(), 1);
}

TEST(ResilientPolicy, BeatsPlainProactiveUnderFaults) {
  // The acceptance criterion: on an iterative application (the compiler
  // plans one timestep, the run repeats it) with >= 5% spin-up failures,
  // wrapping the compiler-directed scheme in ResilientPolicy must recover
  // execution time relative to the unwrapped scheme while staying below
  // Base energy.
  workloads::Benchmark bench = workloads::make_benchmark("mgrid");
  experiments::ExperimentConfig config;
  config.transform = core::Transformation::kLFDL;
  experiments::Runner runner(bench, config);
  const int steps = 12;
  const trace::Trace plain = trace::repeat_trace(runner.trace(), steps);
  const trace::Trace cm =
      trace::repeat_trace(runner.cm_trace(core::PowerMode::kTpm), steps);

  sim::SimOptions options;
  options.faults.spin_up_failure_prob = 0.05;

  BasePolicy base;
  const sim::SimReport base_report = sim::simulate(
      plain, config.disk, base, options);

  ProactivePolicy cmtpm("CMTPM");
  const sim::SimReport cm_report = sim::simulate(
      cm, config.disk, cmtpm, options);

  ProactivePolicy inner("CMTPM");
  ResilientPolicy resilient(inner);
  const sim::SimReport res_report = sim::simulate(
      cm, config.disk, resilient, options);

  EXPECT_LT(res_report.execution_ms, cm_report.execution_ms);
  EXPECT_LT(res_report.total_energy, base_report.total_energy);
  EXPECT_GT(resilient.demotions(), 0);
}

}  // namespace
}  // namespace sdpm::policy
