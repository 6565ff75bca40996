// Histogram, invariant checker, and profiling tables.
#include <gtest/gtest.h>

#include <cmath>

#include "experiments/profile.h"
#include "experiments/report.h"
#include "policy/proactive.h"
#include "trace/generator.h"
#include "core/schedule.h"
#include "experiments/runner.h"
#include "policy/base.h"
#include "policy/tpm.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "util/error.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace sdpm {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(7.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  EXPECT_NEAR(h.median(), 7.0, 7.0 * 0.3);
}

TEST(Histogram, QuantilesApproximateUniform) {
  Histogram h(1e-3, 1.1);
  SplitMix64 rng(33);
  for (int i = 0; i < 100'000; ++i) h.add(rng.next_double(0.0, 100.0));
  EXPECT_NEAR(h.median(), 50.0, 5.0);
  EXPECT_NEAR(h.p95(), 95.0, 6.0);
  EXPECT_NEAR(h.mean(), 50.0, 1.0);
}

TEST(Histogram, QuantilesMonotone) {
  Histogram h;
  SplitMix64 rng(4);
  for (int i = 0; i < 5'000; ++i) h.add(rng.next_double(0.1, 1'000.0));
  double prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = h.quantile(q);
    EXPECT_GE(value, prev - 1e-9);
    prev = value;
  }
  EXPECT_LE(h.quantile(1.0), h.max() + 1e-9);
}

TEST(Histogram, WideDynamicRange) {
  Histogram h;
  h.add(0.001);   // 1 us
  h.add(10'900);  // 10.9 s, same histogram
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.max(), 10'900.0);
  EXPECT_NE(h.to_string().find("#"), std::string::npos);
}

TEST(Histogram, SummaryAndAscii) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NE(h.summary().find("n=100"), std::string::npos);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Histogram, RejectsBadConfig) {
  EXPECT_THROW(Histogram(0.0, 1.5), Error);
  EXPECT_THROW(Histogram(1.0, 1.0), Error);
  Histogram h;
  EXPECT_THROW(h.quantile(1.5), Error);
}

TEST(Histogram, MergeEmptyIntoEmpty) {
  Histogram a;
  Histogram b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.quantile(0.99), 0.0);
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a;
  Histogram empty;
  for (int i = 1; i <= 50; ++i) a.add(static_cast<double>(i));
  const double before = a.quantile(0.9);
  a.merge(empty);
  EXPECT_EQ(a.count(), 50);
  EXPECT_DOUBLE_EQ(a.quantile(0.9), before);

  // The other direction: folding a populated histogram into an empty one
  // must adopt its extremes, not mix in the empty side's zero min/max.
  empty.merge(a);
  EXPECT_EQ(empty.count(), 50);
  EXPECT_DOUBLE_EQ(empty.min(), a.min());
  EXPECT_DOUBLE_EQ(empty.max(), a.max());
}

TEST(Histogram, MergeSingleSample) {
  Histogram a;
  Histogram b;
  b.add(3.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.min(), 3.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.5);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
}

TEST(Histogram, MergeDisjointRanges) {
  // Sub-millisecond samples on one side, multi-second on the other: the
  // merged histogram must span both and place the median in the gap's
  // lower half (equal counts each side).
  Histogram lo;
  Histogram hi;
  SplitMix64 rng(99);
  for (int i = 0; i < 10'000; ++i) lo.add(rng.next_double(0.01, 0.1));
  for (int i = 0; i < 10'000; ++i) hi.add(rng.next_double(4'000.0, 9'000.0));
  Histogram merged;
  merged.merge(lo);
  merged.merge(hi);
  EXPECT_EQ(merged.count(), 20'000);
  EXPECT_LE(merged.min(), 0.1);
  EXPECT_GE(merged.max(), 4'000.0);
  EXPECT_LT(merged.quantile(0.49), 0.2);
  EXPECT_GT(merged.quantile(0.51), 3'000.0);
  EXPECT_NEAR(merged.sum(), lo.sum() + hi.sum(), 1e-6);
}

TEST(Histogram, MergeIsLossless) {
  // The documented merge contract: shard-and-merge is indistinguishable
  // from a single histogram that saw every sample directly.
  Histogram direct;
  Histogram shard_a;
  Histogram shard_b;
  SplitMix64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.next_double(0.001, 500.0);
    direct.add(v);
    (i % 2 == 0 ? shard_a : shard_b).add(v);
  }
  Histogram merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), direct.quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, QuantilesMonotoneUnderMerge) {
  Histogram merged;
  SplitMix64 rng(123);
  for (int shard = 0; shard < 8; ++shard) {
    Histogram h;
    // Each shard covers a different decade, so the merged distribution is
    // lumpy — the worst case for interpolation inside buckets.
    const double base = std::pow(10.0, shard % 4);
    for (int i = 0; i < 1'000; ++i) {
      h.add(rng.next_double(base * 0.1, base));
    }
    merged.merge(h);
    double prev = -1;
    for (double q = 0.0; q <= 1.0; q += 0.02) {
      const double value = merged.quantile(q);
      EXPECT_GE(value, prev - 1e-9) << "shard " << shard << " q " << q;
      prev = value;
    }
  }
}

TEST(Histogram, MergeRejectsIncompatibleBucketing) {
  Histogram a(1e-3, 1.25);
  Histogram fine(1e-3, 1.1);
  Histogram shifted(1e-2, 1.25);
  EXPECT_THROW(a.merge(fine), Error);
  EXPECT_THROW(a.merge(shifted), Error);
}

TEST(Invariants, AcceptsHealthyReports) {
  workloads::Benchmark swim = workloads::make_swim();
  experiments::ExperimentConfig config;
  experiments::Runner runner(swim, config);
  sim::check_invariants(runner.base_report(), config.disk);
}

TEST(Invariants, AcceptsEverySchemeReport) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  const layout::LayoutTable table(galgel.program, config.striping,
                                  config.total_disks);
  trace::TraceGenerator generator(galgel.program, table, config.gen);
  const trace::Trace trace = generator.generate();
  policy::TpmPolicy tpm;
  const sim::SimReport report = sim::simulate(trace, config.disk, tpm);
  sim::check_invariants(report, config.disk);
}

TEST(Invariants, DetectsCorruptedEnergy) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  experiments::Runner runner(galgel, config);
  sim::SimReport report = runner.base_report();
  report.total_energy *= 2.0;
  EXPECT_THROW(sim::check_invariants(report, config.disk), Error);
}

TEST(Invariants, DetectsOverlappingBusyPeriods) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  experiments::Runner runner(galgel, config);
  sim::SimReport report = runner.base_report();
  auto& periods = report.disks[0].busy_periods;
  ASSERT_GE(periods.size(), 2u);
  periods[1].start = periods[0].start - 1.0;
  EXPECT_THROW(sim::check_invariants(report, config.disk), Error);
}

TEST(Profile, PerNestTableAccountsEverything) {
  workloads::Benchmark swim = workloads::make_swim();
  experiments::ExperimentConfig config;
  const layout::LayoutTable table(swim.program, config.striping,
                                  config.total_disks);
  trace::GeneratorOptions gen = config.gen;
  gen.noise = config.actual_noise;
  trace::TraceGenerator generator(swim.program, table, gen);
  const trace::Trace trace = generator.generate();
  policy::BasePolicy policy;
  const sim::SimReport report = sim::simulate(
      trace, config.disk, policy,
      sim::SimOptions{.capture_responses = true});

  const Table profile =
      experiments::per_nest_profile(swim.program, trace, report);
  EXPECT_EQ(profile.row_count(), swim.program.nests.size());
  // swim's calc3 is the compute-only nest: 1 request at most.
  bool found_calc3 = false;
  for (const auto& row : profile.rows()) {
    if (row[0] == "calc3") {
      found_calc3 = true;
      EXPECT_LE(std::stoll(row[3]), 1);
    }
  }
  EXPECT_TRUE(found_calc3);
}

TEST(Profile, IdleGapHistogramSeesTheQuietPhase) {
  workloads::Benchmark swim = workloads::make_swim();
  experiments::ExperimentConfig config;
  experiments::Runner runner(swim, config);
  const Histogram gaps = experiments::idle_gap_histogram(runner.base_report());
  EXPECT_GT(gaps.count(), 0);
  // calc3's ~2 s all-disk quiet phase must appear in the tail.
  EXPECT_GT(gaps.max(), 1'500.0);
  // And the typical inter-burst gap sits in the hundreds of milliseconds.
  EXPECT_GT(gaps.median(), 50.0);
  EXPECT_LT(gaps.median(), 2'000.0);
}

TEST(Profile, IdleGapTableRenders) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  experiments::Runner runner(galgel, config);
  const Table table =
      experiments::idle_gap_table(runner.base_report(), config.disk);
  EXPECT_GE(table.row_count(), 5u);
}

TEST(Residency, SumsToSpinningTime) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  experiments::Runner runner(galgel, config);
  const sim::SimReport& base = runner.base_report();
  for (const sim::DiskReport& d : base.disks) {
    TimeMs residency = 0;
    for (const TimeMs ms : d.level_residency_ms) residency += ms;
    EXPECT_NEAR(residency, d.breakdown.idle_ms + d.breakdown.active_ms,
                1e-6);
  }
}

TEST(Residency, BaseRunStaysAtTopLevel) {
  workloads::Benchmark galgel = workloads::make_galgel();
  experiments::ExperimentConfig config;
  experiments::Runner runner(galgel, config);
  const sim::SimReport& base = runner.base_report();
  const std::size_t top = static_cast<std::size_t>(config.disk.max_level());
  for (const sim::DiskReport& d : base.disks) {
    for (std::size_t l = 0; l < d.level_residency_ms.size(); ++l) {
      if (l == top) {
        EXPECT_GT(d.level_residency_ms[l], 0.0);
      } else {
        EXPECT_DOUBLE_EQ(d.level_residency_ms[l], 0.0);
      }
    }
  }
}

TEST(Residency, CmdrpmSpendsTimeAtLowLevels) {
  workloads::Benchmark swim = workloads::make_swim();
  experiments::ExperimentConfig config;
  const layout::LayoutTable table(swim.program, config.striping,
                                  config.total_disks);
  core::SchedulerOptions so;
  so.access = config.gen;
  const core::ScheduleResult scheduled = core::schedule_power_calls(
      swim.program, table, config.disk, so);
  trace::TraceGenerator generator(scheduled.program, table, config.gen);
  policy::ProactivePolicy policy("CMDRPM");
  const sim::SimReport report =
      sim::simulate(generator.generate(), config.disk, policy);
  TimeMs below_top = 0;
  const std::size_t top = static_cast<std::size_t>(config.disk.max_level());
  for (const sim::DiskReport& d : report.disks) {
    for (std::size_t l = 0; l < top; ++l) {
      below_top += d.level_residency_ms[l];
    }
  }
  // Most of the run's disk-time is spent below full speed.
  EXPECT_GT(below_top,
            0.4 * report.execution_ms * report.disk_count());
}

}  // namespace
}  // namespace sdpm
