// Oracle (ITPM/IDRPM) per-gap primitives and whole-run post-processing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "policy/base.h"
#include "policy/oracle.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace sdpm::policy {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

TEST(OracleGap, TopLevelAlwaysFeasible) {
  EXPECT_TRUE(drpm_level_feasible(0.0, params().max_level(), params()));
  EXPECT_NEAR(drpm_gap_energy(1'000.0, params().max_level(), params()),
              joules_from_watt_ms(10.2, 1'000.0), 1e-9);
}

TEST(OracleGap, FeasibilityRequiresRoundTrip) {
  // Level 8 (two steps down): round trip 4 steps = 20 ms by default.
  EXPECT_FALSE(drpm_level_feasible(19.0, 8, params()));
  EXPECT_TRUE(drpm_level_feasible(20.0, 8, params()));
}

TEST(OracleGap, GapEnergyDecomposition) {
  const TimeMs gap = 1'000.0;
  const int level = 5;
  const TimeMs rt = params().rpm_transition_time(10, level) * 2;
  const Joules expected =
      params().rpm_transition_energy(10, level) +
      params().rpm_transition_energy(level, 10) +
      joules_from_watt_ms(params().idle_power_at_level(level), gap - rt);
  EXPECT_NEAR(drpm_gap_energy(gap, level, params()), expected, 1e-9);
}

TEST(OracleGap, InfeasibleLevelThrows) {
  EXPECT_THROW(drpm_gap_energy(5.0, 0, params()), sdpm::Error);
}

TEST(OracleGap, OptimalLevelIsExhaustiveArgmin) {
  for (const TimeMs gap : {10.0, 50.0, 120.0, 400.0, 2'000.0, 30'000.0}) {
    const int best = optimal_rpm_level(gap, params());
    Joules best_energy = drpm_gap_energy(gap, best, params());
    for (int level = 0; level <= params().max_level(); ++level) {
      if (!drpm_level_feasible(gap, level, params())) continue;
      EXPECT_GE(drpm_gap_energy(gap, level, params()), best_energy - 1e-9)
          << "gap " << gap << " level " << level;
    }
  }
}

TEST(OracleGap, ShortGapStaysAtTop) {
  EXPECT_EQ(optimal_rpm_level(5.0, params()), params().max_level());
}

TEST(OracleGap, LongGapReachesMinimum) {
  EXPECT_EQ(optimal_rpm_level(60'000.0, params()), 0);
}

TEST(OracleGap, OptimalLevelMonotoneInGap) {
  // Longer gaps never pick a faster level.
  int prev = params().max_level();
  for (TimeMs gap = 10.0; gap < 5'000.0; gap *= 1.3) {
    const int level = optimal_rpm_level(gap, params());
    EXPECT_LE(level, prev) << "gap " << gap;
    prev = level;
  }
}

/// Reference level choice: per level, a feasibility call, then an energy
/// call that checks feasibility again.
int two_call_level(TimeMs gap_ms, const disk::DiskParameters& p) {
  const int top = p.max_level();
  int best = top;
  Joules best_energy = drpm_gap_energy(gap_ms, top, p);
  for (int level = top - 1; level >= 0; --level) {
    if (!drpm_level_feasible(gap_ms, level, p)) break;
    const Joules e = drpm_gap_energy(gap_ms, level, p);
    if (e < best_energy - 1e-12) {
      best_energy = e;
      best = level;
    }
  }
  return best;
}

TEST(OracleGap, OnePassLevelEqualsTheTwoCallLoop) {
  const TimeMs inf = std::numeric_limits<double>::infinity();
  for (const char* preset :
       {"ultrastar_36z15", "scsi_multi_idle", "nvme_tiered"}) {
    const disk::DiskParameters p = disk::DiskParameters::preset(preset);
    const int top = p.max_level();
    std::vector<TimeMs> gaps = {0.0, std::numeric_limits<double>::denorm_min(),
                                1e-9, 1e300, inf};
    // Each level's round trip, where it becomes feasible, +- 1 ulp.
    for (int level = 0; level < top; ++level) {
      const TimeMs round_trip =
          p.rpm_transition_time(top, level) + p.rpm_transition_time(level, top);
      gaps.push_back(std::nextafter(round_trip, 0.0));
      gaps.push_back(round_trip);
      gaps.push_back(std::nextafter(round_trip, inf));
    }
    // Densely past the deepest round trip, then geometrically to ~3 h.
    const TimeMs deepest =
        p.rpm_transition_time(top, 0) + p.rpm_transition_time(0, top);
    for (TimeMs gap = 0.0; gap < 4.0 * deepest + 100.0; gap += 1.0 / 7.0) {
      gaps.push_back(gap);
    }
    for (TimeMs gap = 1.0; gap < 1e7; gap *= 1.001) gaps.push_back(gap);
    for (const TimeMs gap : gaps) {
      ASSERT_EQ(optimal_rpm_level(gap, p), two_call_level(gap, p))
          << preset << " gap " << gap;
    }
  }
  EXPECT_THROW(optimal_rpm_level(-1.0, params()), sdpm::Error);
  EXPECT_THROW(optimal_rpm_level(std::nan(""), params()), sdpm::Error);
}

TEST(OracleGap, TpmBeneficialMatchesBreakEven) {
  const TimeMs be = params().break_even_time();
  EXPECT_FALSE(tpm_gap_beneficial(be * 0.99, params()));
  EXPECT_TRUE(tpm_gap_beneficial(be * 1.01, params()));
}

// A spin_down directive parks in the default park, so only that park's
// economics count for it.  On the one-park paper disk the two predicates
// agree; on a multi-park preset some gaps pay off only in a shallower park.
TEST(OracleGap, SpinDownPaysOffOnlyInTheDefaultPark) {
  for (TimeMs gap = 10.0; gap < 200'000.0; gap *= 1.1) {
    EXPECT_EQ(spin_down_beneficial(gap, params()),
              tpm_gap_beneficial(gap, params()))
        << "gap " << gap;
  }
  const disk::DiskParameters nvme =
      disk::DiskParameters::preset("nvme_tiered");
  int shallower_only = 0;
  for (TimeMs gap = 1.0; gap < 200'000.0; gap *= 1.05) {
    if (spin_down_beneficial(gap, nvme)) {
      EXPECT_TRUE(tpm_gap_beneficial(gap, nvme)) << "gap " << gap;
    } else if (tpm_gap_beneficial(gap, nvme)) {
      ++shallower_only;
    }
  }
  EXPECT_GT(shallower_only, 0);
}

TEST(OracleGap, TpmGapEnergyNeverWorseThanIdling) {
  for (const TimeMs gap : {100.0, 10'000.0, 15'000.0, 20'000.0, 100'000.0}) {
    EXPECT_LE(tpm_gap_energy(gap, params()),
              joules_from_watt_ms(10.2, gap) + 1e-9);
  }
}

TEST(OracleGap, TpmGapEnergySpunDownForm) {
  const TimeMs gap = 100'000.0;
  const Joules expected =
      13.0 + 135.0 +
      joules_from_watt_ms(2.5, gap - 1'500.0 - 10'900.0);
  EXPECT_NEAR(tpm_gap_energy(gap, params()), expected, 1e-9);
}

sim::SimReport base_run_with_gap(TimeMs gap_ms) {
  trace::Trace t;
  t.total_disks = 2;
  trace::Request r1;
  r1.arrival_ms = 0.0;
  r1.size_bytes = kib(64);
  r1.disk = 0;
  trace::Request r2 = r1;
  r2.arrival_ms = gap_ms;
  r2.start_sector = 1'000'000;
  t.requests = {r1, r2};
  t.compute_total_ms = gap_ms + 100.0;
  BasePolicy policy;
  // The oracles replay the gaps between busy periods, so capture them.
  return sim::simulate(t, params(), policy,
                       sim::SimOptions{.capture_busy_periods = true});
}

TEST(OracleRun, IdealTpmOnShortGapsEqualsBase) {
  const sim::SimReport base = base_run_with_gap(5'000.0);
  const OracleReport itpm = ideal_tpm(base, params());
  EXPECT_NEAR(itpm.total_energy, base.total_energy, 1e-6);
  EXPECT_EQ(itpm.execution_ms, base.execution_ms);
}

TEST(OracleRun, IdealTpmSavesOnLongGaps) {
  const sim::SimReport base = base_run_with_gap(60'000.0);
  const OracleReport itpm = ideal_tpm(base, params());
  EXPECT_LT(itpm.total_energy, base.total_energy);
  // No performance penalty by construction.
  EXPECT_EQ(itpm.execution_ms, base.execution_ms);
}

TEST(OracleRun, IdealDrpmNeverWorseThanBase) {
  for (const TimeMs gap : {100.0, 1'000.0, 30'000.0}) {
    const sim::SimReport base = base_run_with_gap(gap);
    const OracleReport idrpm = ideal_drpm(base, params());
    EXPECT_LE(idrpm.total_energy, base.total_energy + 1e-6) << gap;
  }
}

TEST(OracleRun, IdealDrpmBeatsIdealTpmOnMediumGaps) {
  // A 5 s gap is below TPM's break-even but ideal for deep RPM reduction.
  const sim::SimReport base = base_run_with_gap(5'000.0);
  EXPECT_LT(ideal_drpm(base, params()).total_energy,
            ideal_tpm(base, params()).total_energy);
}

TEST(OracleRun, ChoicesCoverEveryGap) {
  const sim::SimReport base = base_run_with_gap(10'000.0);
  const OracleReport idrpm = ideal_drpm(base, params());
  // Disk 0: gap before first request (zero-length), between, and trailing;
  // disk 1: one whole-run gap.
  TimeMs covered = 0;
  for (const OracleChoice& c : idrpm.choices) {
    if (c.disk == 0) covered += c.gap_ms;
  }
  const TimeMs busy =
      2 * params().service_time(kib(64), params().max_level(), false);
  EXPECT_NEAR(covered, base.execution_ms - busy, 1e-6);
}

TEST(OracleRun, UntouchedDiskIsOneLongGap) {
  const sim::SimReport base = base_run_with_gap(10'000.0);
  const OracleReport idrpm = ideal_drpm(base, params());
  int disk1_gaps = 0;
  for (const OracleChoice& c : idrpm.choices) {
    if (c.disk == 1) {
      ++disk1_gaps;
      EXPECT_EQ(c.level, 0);  // whole run at minimum RPM
      EXPECT_NEAR(c.gap_ms, base.execution_ms, 1e-6);
    }
  }
  EXPECT_EQ(disk1_gaps, 1);
}

TEST(OracleRun, PerDiskEnergiesSumToTotal) {
  const sim::SimReport base = base_run_with_gap(20'000.0);
  for (const OracleReport& report :
       {ideal_tpm(base, params()), ideal_drpm(base, params())}) {
    Joules sum = 0;
    for (Joules e : report.disk_energy) sum += e;
    EXPECT_NEAR(sum, report.total_energy, 1e-9);
  }
}

}  // namespace
}  // namespace sdpm::policy
