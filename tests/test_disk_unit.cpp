// DiskUnit: power-state machine, energy conservation, service model.
#include <gtest/gtest.h>

#include "sim/disk_unit.h"
#include "util/error.h"

namespace sdpm::sim {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

TEST(DiskUnit, IdleEnergyIntegration) {
  DiskUnit unit(params(), 0);
  unit.finish(10'000.0);  // 10 s idle at 10.2 W
  EXPECT_NEAR(unit.report().breakdown.idle_j, 102.0, 1e-9);
  EXPECT_NEAR(unit.report().breakdown.total_ms(), 10'000.0, 1e-9);
}

TEST(DiskUnit, TimeAccountingIsExhaustive) {
  DiskUnit unit(params(), 0);
  unit.serve(1'000.0, 0, kib(64));
  unit.park_to(5'000.0, params().default_park());
  unit.spin_up(20'000.0);
  unit.serve(40'000.0, 512, kib(64));
  unit.finish(60'000.0);
  // Every millisecond of [0, 60000] lands in exactly one bucket.
  EXPECT_NEAR(unit.report().breakdown.total_ms(), 60'000.0, 1e-6);
}

TEST(DiskUnit, SpinDownThenStandbyEnergy) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());
  unit.finish(10'000.0);
  const auto& b = unit.report().breakdown;
  EXPECT_NEAR(b.spin_down_ms, 1'500.0, 1e-9);
  EXPECT_NEAR(b.spin_down_j, 13.0, 1e-9);
  EXPECT_NEAR(b.standby_ms, 8'500.0, 1e-9);
  EXPECT_NEAR(b.standby_j, 2.5 * 8.5, 1e-9);
  EXPECT_EQ(unit.report().spin_downs, 1);
}

TEST(DiskUnit, SpinDownIsIdempotent) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());
  unit.park_to(100.0, params().default_park());
  unit.park_to(5'000.0, params().default_park());
  EXPECT_EQ(unit.report().spin_downs, 1);
}

TEST(DiskUnit, PreactivatedSpinUpHidesLatency) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());
  unit.spin_up(5'000.0);  // completes at 15'900
  const auto result = unit.serve(20'000.0, 0, kib(64));
  EXPECT_FALSE(result.demand_spin_up);
  EXPECT_NEAR(result.start, 20'000.0, 1e-9);
  EXPECT_NEAR(unit.report().breakdown.spin_up_j, 135.0, 1e-9);
}

TEST(DiskUnit, DemandSpinUpDelaysRequest) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());
  const auto result = unit.serve(5'000.0, 0, kib(64));
  EXPECT_TRUE(result.demand_spin_up);
  // Spin-up starts at arrival; service only after 10.9 s.
  EXPECT_NEAR(result.start, 5'000.0 + 10'900.0, 1e-9);
  EXPECT_EQ(unit.report().demand_spin_ups, 1);
}

TEST(DiskUnit, RequestDuringSpinDownWaitsOutBothTransitions) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());  // until 1'500
  const auto result = unit.serve(500.0, 0, kib(64));
  // Must finish spinning down, then spin up on demand.
  EXPECT_NEAR(result.start, 1'500.0 + 10'900.0, 1e-9);
  EXPECT_TRUE(result.demand_spin_up);
}

TEST(DiskUnit, ServiceTimeAndActiveEnergy) {
  DiskUnit unit(params(), 0);
  const auto result = unit.serve(100.0, 0, kib(64));
  const TimeMs expected =
      params().service_time(kib(64), params().max_level(), false);
  EXPECT_NEAR(result.completion - result.start, expected, 1e-9);
  EXPECT_NEAR(unit.report().breakdown.active_j,
              joules_from_watt_ms(13.5, expected), 1e-9);
}

TEST(DiskUnit, SequentialRequestsSkipPositioning) {
  DiskUnit unit(params(), 0);
  const auto first = unit.serve(0.0, 0, kib(64));
  // Next request starts exactly at the previous one's last sector + 1.
  const BlockNo next_sector = kib(64) / 512;
  const auto second = unit.serve(first.completion, next_sector, kib(64));
  const TimeMs seq =
      params().service_time(kib(64), params().max_level(), true);
  EXPECT_NEAR(second.completion - second.start, seq, 1e-9);
  // A non-contiguous third request seeks again.
  const auto third = unit.serve(second.completion, 10'000'000, kib(64));
  EXPECT_GT(third.completion - third.start, seq + 3.0);
}

TEST(DiskUnit, RpmTransitionTimeline) {
  DiskUnit unit(params(), 0);
  unit.set_rpm_level(0.0, 5);  // 5 steps = 25 ms (default 5 ms/step)
  unit.finish(1'000.0);
  const auto& b = unit.report().breakdown;
  EXPECT_NEAR(b.rpm_shift_ms, params().rpm_transition_time(10, 5), 1e-9);
  EXPECT_NEAR(b.rpm_shift_j, params().rpm_transition_energy(10, 5), 1e-9);
  // Idle after the transition is billed at the lower level's power.
  const TimeMs residence = 1'000.0 - b.rpm_shift_ms;
  EXPECT_NEAR(b.idle_j,
              joules_from_watt_ms(params().idle_power_at_level(5), residence),
              1e-9);
}

TEST(DiskUnit, SetRpmNoopAtSameLevel) {
  DiskUnit unit(params(), 0);
  unit.set_rpm_level(0.0, params().max_level());
  EXPECT_EQ(unit.report().rpm_transitions, 0);
}

TEST(DiskUnit, ServeDuringRpmShiftWaits) {
  DiskUnit unit(params(), 0);
  unit.set_rpm_level(0.0, 0);  // 50 ms transition
  const auto result = unit.serve(10.0, 0, kib(64));
  EXPECT_TRUE(result.waited_transition);
  EXPECT_NEAR(result.start, params().rpm_transition_time(10, 0), 1e-9);
  // Service happens at the low level (slower).
  EXPECT_NEAR(result.completion - result.start,
              params().service_time(kib(64), 0, false), 1e-9);
}

TEST(DiskUnit, ChainedRpmCommandsSerialize) {
  DiskUnit unit(params(), 0);
  unit.set_rpm_level(0.0, 8);   // 2 steps, ends at 10 ms
  unit.set_rpm_level(5.0, 10);  // must wait, then 2 steps back up
  unit.finish(100.0);
  EXPECT_EQ(unit.report().rpm_transitions, 2);
  EXPECT_EQ(unit.target_level(), 10);
  EXPECT_NEAR(unit.report().breakdown.rpm_shift_ms,
              2 * params().rpm_transition_time(10, 8), 1e-9);
}

TEST(DiskUnit, SetRpmOnStandbyDiskRejected) {
  DiskUnit unit(params(), 0);
  unit.park_to(0.0, params().default_park());
  EXPECT_THROW(unit.set_rpm_level(10'000.0, 5), Error);
}

TEST(DiskUnit, TargetLevelReflectsPendingTransition) {
  DiskUnit unit(params(), 0);
  EXPECT_EQ(unit.target_level(), 10);
  unit.set_rpm_level(0.0, 3);
  EXPECT_EQ(unit.target_level(), 3);
}

TEST(DiskUnit, HeadingToStandby) {
  DiskUnit unit(params(), 0);
  EXPECT_EQ(unit.current_park(), -1);
  unit.park_to(0.0, params().default_park());
  EXPECT_EQ(unit.current_park(), params().default_park());
  unit.spin_up(2'000.0);
  EXPECT_EQ(unit.current_park(), -1);
}

TEST(DiskUnit, BusyPeriodsRecorded) {
  DiskUnit unit(params(), 0);
  unit.serve(10.0, 0, kib(64));
  unit.serve(100.0, 99'999, kib(64));
  ASSERT_EQ(unit.report().busy_periods.size(), 2u);
  EXPECT_NEAR(unit.report().busy_periods[0].start, 10.0, 1e-9);
  EXPECT_GT(unit.report().busy_periods[1].completion,
            unit.report().busy_periods[1].start);
  EXPECT_EQ(unit.report().services, 2);
}

TEST(DiskUnit, EnergyNeverNegativeAndMonotone) {
  DiskUnit unit(params(), 0);
  Joules prev = 0;
  TimeMs t = 0;
  for (int k = 0; k < 20; ++k) {
    t += 500.0;
    unit.serve(t, k * 1'000, kib(16));
    const Joules now = unit.report().breakdown.total_j();
    EXPECT_GT(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace sdpm::sim
