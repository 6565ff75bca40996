// Experiment runner: the paper's qualitative scheme orderings (Fig. 3/4)
// must hold for every benchmark under the default configuration.
#include <gtest/gtest.h>

#include <string>

#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "util/error.h"

namespace sdpm::experiments {
namespace {

// Swim is the paper's sensitivity subject; use it for the detailed checks
// and run the cheaper orderings across all six.
class SchemeOrderingTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllSix, SchemeOrderingTest,
                         ::testing::ValuesIn(workloads::benchmark_names()),
                         [](const auto& param_info) { return param_info.param; });

TEST_P(SchemeOrderingTest, PaperFigure3And4Shape) {
  workloads::Benchmark b = workloads::make_benchmark(GetParam());
  ExperimentConfig config;
  Runner runner(b, config);

  const SchemeResult base = runner.run(Scheme::kBase);
  const SchemeResult tpm = runner.run(Scheme::kTpm);
  const SchemeResult itpm = runner.run(Scheme::kItpm);
  const SchemeResult drpm = runner.run(Scheme::kDrpm);
  const SchemeResult idrpm = runner.run(Scheme::kIdrpm);
  const SchemeResult cmtpm = runner.run(Scheme::kCmtpm);
  const SchemeResult cmdrpm = runner.run(Scheme::kCmdrpm);

  // Base normalizes to 1.
  EXPECT_DOUBLE_EQ(base.normalized_energy, 1.0);
  EXPECT_DOUBLE_EQ(base.normalized_time, 1.0);

  // "the TPM version (ideal or otherwise) does not achieve any energy
  // savings" — idle periods are below the break-even threshold.
  EXPECT_NEAR(tpm.normalized_energy, 1.0, 1e-6);
  EXPECT_NEAR(itpm.normalized_energy, 1.0, 1e-6);
  EXPECT_NEAR(tpm.normalized_time, 1.0, 1e-6);
  EXPECT_NEAR(cmtpm.normalized_energy, 1.0, 1e-6);

  // DRPM saves energy but pays execution time.
  EXPECT_LT(drpm.normalized_energy, 0.95);
  EXPECT_GT(drpm.normalized_time, 1.01);

  // The oracle dominates every implementable DRPM scheme.
  EXPECT_LE(idrpm.energy_j, drpm.energy_j + 1e-6);
  EXPECT_LE(idrpm.energy_j, cmdrpm.energy_j + 1e-6);
  EXPECT_DOUBLE_EQ(idrpm.normalized_time, 1.0);

  // CMDRPM: close to the oracle's savings (within 15 percentage points)...
  EXPECT_LT(cmdrpm.normalized_energy, 1.0);
  EXPECT_LT(cmdrpm.normalized_energy - idrpm.normalized_energy, 0.15);
  // ...with (near) no performance penalty, unlike reactive DRPM.
  EXPECT_LT(cmdrpm.normalized_time, 1.05);
  EXPECT_LT(cmdrpm.normalized_time, drpm.normalized_time);

  // Misprediction statistics only exist for the compiler-managed schemes.
  EXPECT_TRUE(cmdrpm.mispredict_pct.has_value());
  EXPECT_FALSE(drpm.mispredict_pct.has_value());
  EXPECT_GE(*cmdrpm.mispredict_pct, 0.0);
  EXPECT_LE(*cmdrpm.mispredict_pct, 60.0);

  // CM schemes actually inserted calls.
  EXPECT_GT(cmdrpm.power_calls, 0);
}

TEST(Runner, RunAllCoversSevenSchemes) {
  // A sweep cell with no scheme list runs all seven, in the paper's order.
  SweepCell cell;
  cell.benchmark = workloads::make_galgel();
  const auto sweep = SweepEngine().run({cell});
  ASSERT_EQ(sweep.size(), 1u);
  ASSERT_FALSE(sweep[0].error);
  const auto& results = sweep[0].results;
  ASSERT_EQ(results.size(), 7u);
  EXPECT_EQ(results[0].scheme, Scheme::kBase);
  EXPECT_EQ(results[6].scheme, Scheme::kCmdrpm);
}

TEST(Runner, SchemeNames) {
  EXPECT_STREQ(to_string(Scheme::kBase), "Base");
  EXPECT_STREQ(to_string(Scheme::kItpm), "ITPM");
  EXPECT_STREQ(to_string(Scheme::kCmdrpm), "CMDRPM");
  EXPECT_EQ(all_schemes().size(), 7u);
}

TEST(Runner, NoNoiseMeansNoMisprediction) {
  workloads::Benchmark b = workloads::make_galgel();
  ExperimentConfig config;
  config.actual_noise = trace::CycleNoise::none();
  config.profile_noise = trace::CycleNoise::none();
  Runner runner(b, config);
  const SchemeResult cmdrpm = runner.run(Scheme::kCmdrpm);
  EXPECT_DOUBLE_EQ(*cmdrpm.mispredict_pct, 0.0);
  // And with perfect estimates the compiler tracks the oracle tightly.
  const SchemeResult idrpm = runner.run(Scheme::kIdrpm);
  EXPECT_LT(cmdrpm.normalized_energy - idrpm.normalized_energy, 0.08);
  EXPECT_LT(cmdrpm.normalized_time, 1.01);
}

TEST(Runner, PreactivationAblation) {
  // Without pre-activation the compiler still saves energy, but requests
  // catch disks mid-transition: execution time suffers relative to the
  // pre-activated schedule.
  workloads::Benchmark b = workloads::make_swim();
  ExperimentConfig on;
  Runner runner_on(b, on);
  ExperimentConfig off;
  off.preactivate = false;
  Runner runner_off(b, off);
  const SchemeResult with = runner_on.run(Scheme::kCmdrpm);
  const SchemeResult without = runner_off.run(Scheme::kCmdrpm);
  EXPECT_GT(without.normalized_time, with.normalized_time);
}

TEST(Runner, MoreDisksMoreSavings) {
  // Fig. 7's trend: normalized CMDRPM energy improves with the stripe
  // factor.
  workloads::Benchmark b = workloads::make_swim();
  double prev = 1.0;
  for (const int disks : {4, 8, 16}) {
    ExperimentConfig config;
    config.total_disks = disks;
    config.striping.stripe_factor = disks;
    Runner runner(b, config);
    const double now = runner.run(Scheme::kCmdrpm).normalized_energy;
    EXPECT_LT(now, prev) << disks;
    prev = now;
  }
}

TEST(Runner, TransformedConfigurationsRun) {
  workloads::Benchmark b = workloads::make_mgrid();
  for (const auto t : {core::Transformation::kLF, core::Transformation::kLFDL,
                       core::Transformation::kTL,
                       core::Transformation::kTLDL}) {
    ExperimentConfig config;
    config.transform = t;
    Runner runner(b, config);
    const SchemeResult r = runner.run(Scheme::kCmdrpm);
    EXPECT_GT(r.energy_j, 0.0) << core::to_string(t);
  }
}

TEST(Runner, LfDlMakesTpmViableForMgrid) {
  // Fig. 13's headline: the transformations create spin-down opportunities
  // that CMTPM exploits.
  workloads::Benchmark b = workloads::make_mgrid();
  ExperimentConfig plain;
  Runner plain_runner(b, plain);
  const double untransformed =
      plain_runner.run(Scheme::kCmtpm).energy_j;
  ExperimentConfig lfdl;
  lfdl.transform = core::Transformation::kLFDL;
  Runner lfdl_runner(b, lfdl);
  const double transformed = lfdl_runner.run(Scheme::kCmtpm).energy_j;
  EXPECT_LT(transformed, 0.8 * untransformed);
}

TEST(Runner, GalgelUnaffectedByTransformations) {
  workloads::Benchmark b = workloads::make_galgel();
  ExperimentConfig plain;
  Runner plain_runner(b, plain);
  const double base_energy = plain_runner.base_report().total_energy;
  for (const auto t :
       {core::Transformation::kLFDL, core::Transformation::kTLDL}) {
    ExperimentConfig config;
    config.transform = t;
    Runner runner(b, config);
    // Energy within 2% of the untransformed base run.
    EXPECT_NEAR(runner.base_report().total_energy, base_energy,
                0.02 * base_energy)
        << core::to_string(t);
  }
}

TEST(Runner, FailedBaseRunRethrowsTheSameErrorToEveryCaller) {
  // A block size that does not divide the 64 KB stripe lets the Runner
  // compile but makes its Base trace throw.  The failure is kept: a second
  // call rethrows the same located error instead of re-running the walk.
  ExperimentConfig config;
  config.gen.block_size = kib(64) + 512;
  Runner runner(workloads::make_galgel(), config);
  const auto message = [&runner] {
    try {
      runner.base_report();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string first = message();
  EXPECT_NE(first.find("block size must divide"), std::string::npos)
      << first;
  EXPECT_NE(first.find(".cpp:"), std::string::npos) << first;
  EXPECT_EQ(message(), first);
}

}  // namespace
}  // namespace sdpm::experiments
