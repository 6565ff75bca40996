// DiskParameters: Table 1 identities, the derived physics and the handle's
// construction rules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "disk/ladder.h"
#include "disk/parameters.h"
#include "disk/power_state.h"
#include "util/error.h"
#include "util/json.h"

namespace sdpm::disk {
namespace {

TEST(Parameters, Table1Defaults) {
  const DiskParameters p = DiskParameters::ultrastar_36z15();
  const int top = p.max_level();
  EXPECT_EQ(p.ladder().model, "IBM Ultrastar 36Z15");
  EXPECT_EQ(p.ladder().capacity, gib(18));
  EXPECT_EQ(p.rpm_of_level(top), 15'000);
  EXPECT_DOUBLE_EQ(p.ladder().average_seek_time, 3.4);
  EXPECT_DOUBLE_EQ(p.rotational_latency_at_level(top), 2.0);
  EXPECT_DOUBLE_EQ(p.transfer_rate_at_level(top), 55.0);
  EXPECT_DOUBLE_EQ(p.active_power_at_level(top), 13.5);
  EXPECT_DOUBLE_EQ(p.idle_power_at_level(top), 10.2);
  EXPECT_DOUBLE_EQ(p.standby_power(), 2.5);
  EXPECT_EQ(p.window_size(), 30);
}

TEST(Parameters, RpmLadder) {
  const DiskParameters p;
  EXPECT_EQ(p.rpm_level_count(), 11);  // 3000..15000 step 1200
  EXPECT_EQ(p.rpm_of_level(0), 3'000);
  EXPECT_EQ(p.rpm_of_level(10), 15'000);
  EXPECT_EQ(p.max_level(), 10);
  EXPECT_THROW(p.rpm_of_level(11), Error);
  EXPECT_THROW(p.rpm_of_level(-1), Error);
}

TEST(Parameters, IdlePowerDecompositionMatchesTable1) {
  const DiskParameters p;
  // At the top level the decomposition must reproduce the datasheet.
  EXPECT_NEAR(p.idle_power_at_level(p.max_level()), 10.2, 1e-9);
  EXPECT_NEAR(p.active_power_at_level(p.max_level()), 13.5, 1e-9);
}

TEST(Parameters, PowerMonotoneInRpm) {
  const DiskParameters p;
  for (int level = 1; level < p.rpm_level_count(); ++level) {
    EXPECT_GT(p.idle_power_at_level(level), p.idle_power_at_level(level - 1));
    EXPECT_GT(p.active_power_at_level(level),
              p.active_power_at_level(level - 1));
  }
  // The floor approaches (but stays above) the electronics power.
  EXPECT_GT(p.idle_power_at_level(0), p.ladder().electronics_power);
  EXPECT_LT(p.idle_power_at_level(0), 3.0);
}

TEST(Parameters, MechanicsScaleWithRpm) {
  const DiskParameters p;
  EXPECT_NEAR(p.rotational_latency_at_level(p.max_level()), 2.0, 1e-9);
  // Half speed -> double latency.
  int half = 0;  // the 7,800 RPM level: not exactly half; check ratio
  while (half < p.max_level() && p.rpm_of_level(half) != 7'800) ++half;
  ASSERT_EQ(p.rpm_of_level(half), 7'800);
  EXPECT_NEAR(p.rotational_latency_at_level(half), 2.0 * 15'000 / 7'800,
              1e-9);
  EXPECT_NEAR(p.transfer_rate_at_level(p.max_level()), 55.0, 1e-9);
  EXPECT_NEAR(p.transfer_rate_at_level(0), 55.0 * 3'000 / 15'000, 1e-9);
}

TEST(Parameters, ServiceTimeComposition) {
  const DiskParameters p;
  const Bytes size = kib(64);
  const double rate_bytes_per_ms = 55.0 * 1e6 / 1e3;
  const TimeMs transfer = static_cast<double>(size) / rate_bytes_per_ms;
  EXPECT_NEAR(p.service_time(size, p.max_level(), /*sequential=*/true),
              transfer, 1e-9);
  EXPECT_NEAR(p.service_time(size, p.max_level(), /*sequential=*/false),
              3.4 + 2.0 + transfer, 1e-9);
}

TEST(Parameters, ServiceSlowerAtLowerRpm) {
  const DiskParameters p;
  EXPECT_GT(p.service_time(kib(64), 0, false),
            p.service_time(kib(64), p.max_level(), false));
}

TEST(Parameters, TransitionTimeProportionalToDistance) {
  const DiskParameters p;
  EXPECT_DOUBLE_EQ(p.rpm_transition_time(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(p.rpm_transition_time(10, 9), 5.0);  // one RPM step
  EXPECT_DOUBLE_EQ(p.rpm_transition_time(0, 10), 10 * 5.0);
  EXPECT_DOUBLE_EQ(p.rpm_transition_time(3, 7), p.rpm_transition_time(7, 3));
}

TEST(Parameters, TransitionEnergyBilledAtFasterLevel) {
  const DiskParameters p;
  const Joules down = p.rpm_transition_energy(10, 5);
  const Joules expected = joules_from_watt_ms(p.idle_power_at_level(10),
                                              p.rpm_transition_time(10, 5));
  EXPECT_NEAR(down, expected, 1e-9);
  // Symmetric: up transition billed at the same (faster) level.
  EXPECT_NEAR(p.rpm_transition_energy(5, 10), down, 1e-9);
  EXPECT_DOUBLE_EQ(p.rpm_transition_energy(4, 4), 0.0);
}

TEST(Parameters, BreakEvenMatchesClosedForm) {
  const DiskParameters p;
  // (13 + 135 - 2.5 W * 12.4 s) / (10.2 - 2.5) W = 15.19.. s
  const double expected_s = (13.0 + 135.0 - 2.5 * 12.4) / 7.7;
  EXPECT_NEAR(p.break_even_time(), ms_from_seconds(expected_s), 1e-6);
  EXPECT_NEAR(seconds_from_ms(p.break_even_time()), 15.2, 0.05);
}

TEST(Parameters, IdlenessThresholdDefaultsToBreakEven) {
  const DiskParameters p;
  EXPECT_DOUBLE_EQ(p.effective_idleness_threshold(), p.break_even_time());
  PowerLadder ladder = p.ladder();
  ladder.idleness_threshold = 2'000.0;
  EXPECT_DOUBLE_EQ(
      DiskParameters::from_ladder(ladder).effective_idleness_threshold(),
      2'000.0);
}

TEST(Parameters, ValidateCatchesInconsistencies) {
  // A handle only exists validated: from_ladder rejects inconsistent edits.
  const PowerLadder paper = DiskParameters().ladder();
  PowerLadder p = paper;
  p.states[1].idle_power = 1.0;  // slowest level below standby
  EXPECT_THROW(DiskParameters::from_ladder(p), Error);

  PowerLadder q = paper;
  q.spindle_power_at_max = 1.0;  // decomposition broken
  EXPECT_THROW(DiskParameters::from_ladder(q), Error);

  PowerLadder r = paper;
  r.window_size = 0;
  EXPECT_THROW(DiskParameters::from_ladder(r), Error);
}

TEST(EnergyBreakdown, AccumulatesByState) {
  EnergyBreakdown b;
  b.add(PowerState::kActive, 10, 0.135);
  b.add(PowerState::kIdle, 100, 1.02);
  b.add(PowerState::kStandby, 50, 0.125);
  b.add(PowerState::kSpinningDown, 1'500, 13);
  b.add(PowerState::kSpinningUp, 10'900, 135);
  b.add(PowerState::kRpmShift, 5, 0.05);
  EXPECT_NEAR(b.total_ms(), 12'565, 1e-9);
  EXPECT_NEAR(b.total_j(), 149.33, 1e-6);
}

TEST(EnergyBreakdown, PlusEquals) {
  EnergyBreakdown a;
  a.add(PowerState::kIdle, 10, 1);
  EnergyBreakdown b;
  b.add(PowerState::kIdle, 20, 2);
  b.add(PowerState::kActive, 5, 3);
  a += b;
  EXPECT_DOUBLE_EQ(a.idle_ms, 30);
  EXPECT_DOUBLE_EQ(a.idle_j, 3);
  EXPECT_DOUBLE_EQ(a.active_j, 3);
}

TEST(PowerStateNames, AllDistinct) {
  EXPECT_STREQ(to_string(PowerState::kActive), "active");
  EXPECT_STREQ(to_string(PowerState::kStandby), "standby");
  EXPECT_STREQ(to_string(PowerState::kRpmShift), "rpm-shift");
}

TEST(Parameters, LegacyParkApiIsTheOneStandbyState) {
  // The paper disk's one park is Table 1's standby state, entered by the
  // spin-down edge and left by the spin-up edge.
  const DiskParameters p = DiskParameters::ultrastar_36z15();
  EXPECT_EQ(p.park_count(), 1);
  EXPECT_EQ(p.default_park(), 0);
  EXPECT_EQ(p.park_name(0), "standby");
  EXPECT_EQ(p.park_power(0), 2.5);
  EXPECT_LT(p.park_timer_ms(0), 0);  // break-even, never a timer
  EXPECT_TRUE(p.park_entry_possible(p.max_level(), 0));
  EXPECT_EQ(p.park_entry_time(p.max_level(), 0), 1'500.0);
  EXPECT_EQ(p.park_entry_energy(p.max_level(), 0), 13.0);
  EXPECT_EQ(p.wake_time(0), 10'900.0);
  EXPECT_EQ(p.wake_energy(0), 135.0);
  EXPECT_FALSE(p.park_descent_possible(0, 0));
  EXPECT_EQ(p.break_even_time(0), p.break_even_time());
  EXPECT_THROW(p.park_power(1), Error);
}

TEST(Parameters, PresetRegistry) {
  EXPECT_EQ(DiskParameters::preset_names().size(), 3u);
  // Every preset, the paper disk included, is its PowerLadder preset.
  for (const std::string& name : DiskParameters::preset_names()) {
    EXPECT_EQ(DiskParameters::preset(name).ladder(), PowerLadder::preset(name));
  }
  EXPECT_EQ(DiskParameters::preset("ultrastar_36z15").ladder(),
            DiskParameters().ladder());
  EXPECT_THROW(DiskParameters::preset("microdrive"), Error);
}

TEST(Parameters, ElectronicsPowerDecoupledFromStandby) {
  // The Table 1 decomposition floor is the electronics power, not the
  // standby power: moving one must not move the other.
  PowerLadder ladder = DiskParameters().ladder();
  ladder.states[0].idle_power = 1.0;  // standby below the electronics floor
  const DiskParameters p = DiskParameters::from_ladder(ladder);
  EXPECT_EQ(p.idle_power_at_level(p.max_level()),
            DiskParameters().idle_power_at_level(p.max_level()));
  EXPECT_EQ(p.standby_power(), 1.0);
  EXPECT_EQ(p.ladder().electronics_power, 2.5);
}

TEST(Parameters, MultiParkPresetAccessors) {
  const DiskParameters p = DiskParameters::preset("scsi_multi_idle");
  EXPECT_EQ(p.park_count(), 4);
  EXPECT_EQ(p.rpm_level_count(), 1);
  for (int park = 0; park < p.park_count(); ++park) {
    EXPECT_GT(p.wake_time(park), 0.0);
    EXPECT_GT(p.break_even_time(park), 0.0);
    EXPECT_TRUE(p.park_entry_possible(p.max_level(), park));
  }
  // Deeper parks pay more to wake but hold less power.
  for (int park = 1; park < p.park_count(); ++park) {
    EXPECT_GE(p.wake_time(park - 1), p.wake_time(park));
    EXPECT_LE(p.park_power(park - 1), p.park_power(park));
  }
  // The descent chain steps one rung at a time toward the deepest park.
  EXPECT_TRUE(p.park_descent_possible(3, 2));
  EXPECT_TRUE(p.park_descent_possible(2, 1));
  EXPECT_TRUE(p.park_descent_possible(1, 0));
  EXPECT_FALSE(p.park_descent_possible(0, 3));
}

TEST(Parameters, ToLadderFromLadderRoundTrip) {
  // Default disks share the one paper ladder; from_ladder builds a new
  // handle on an equal copy.
  const DiskParameters paper = DiskParameters::ultrastar_36z15();
  EXPECT_EQ(&paper.ladder(), &DiskParameters().ladder());
  const DiskParameters back = DiskParameters::from_ladder(paper.ladder());
  EXPECT_NE(&back.ladder(), &paper.ladder());
  EXPECT_EQ(back.ladder(), paper.ladder());
  EXPECT_EQ(back.break_even_time(), paper.break_even_time());
}

TEST(Parameters, LevelPhysicsMatchesTheLadder) {
  // The three presets, plus an edited paper ladder read back through
  // from_json (off-grid transfer rate and latency at the top level).
  std::vector<DiskParameters> devices;
  for (const std::string& name : DiskParameters::preset_names()) {
    devices.push_back(DiskParameters::preset(name));
  }
  PowerLadder edited = DiskParameters().ladder();
  LadderState& top = edited.states.back();
  top.transfer_mb_per_s = 47.3;
  top.rot_latency_ms = 2.3;
  devices.push_back(DiskParameters::from_ladder(
      PowerLadder::from_json(Json::parse(edited.to_json().dump()))));
  for (const DiskParameters& p : devices) {
    for (int l = 0; l < p.rpm_level_count(); ++l) {
      const LevelPhysics& physics = p.level_physics(l);
      // Bit for bit: the replay reads these where the accessors were read.
      EXPECT_EQ(physics.idle_w, p.idle_power_at_level(l));
      EXPECT_EQ(physics.active_w, p.active_power_at_level(l));
      EXPECT_EQ(physics.rot_latency_ms, p.rotational_latency_at_level(l));
      EXPECT_EQ(physics.bytes_per_ms,
                p.transfer_rate_at_level(l) * 1'000'000.0 / 1'000.0);
    }
    // A copied handle shares the table instead of deriving its own.
    const DiskParameters copy = p;
    EXPECT_EQ(&copy.level_physics(0), &p.level_physics(0));
  }
  EXPECT_EQ(devices.back().level_physics(devices.back().max_level())
                .rot_latency_ms,
            2.3);
}

}  // namespace
}  // namespace sdpm::disk
