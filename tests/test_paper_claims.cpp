// The paper's concluding claims (§7), asserted end-to-end.
//
// "Based on our experimental evaluation, we conclude that: ..." — each
// bullet of the conclusion, measured on this reproduction with the default
// configuration.  If any of these fail, the reproduction no longer supports
// the paper's argument.
#include <gtest/gtest.h>

#include "analysis/registry.h"
#include "core/schedule.h"
#include "experiments/runner.h"
#include "trace/dap.h"

namespace sdpm {
namespace {

// Claim 1: "For array-intensive scientific applications, the compiler can
// extract disk access pattern, and use it for placing disks into the most
// suitable low-power modes.  In principle, this approach can be used with
// both TPM and DRPM."
TEST(PaperClaims, CompilerExtractsDapAndSchedulesBothModes) {
  for (const std::string& name : workloads::benchmark_names()) {
    const workloads::Benchmark b = workloads::make_benchmark(name);
    const experiments::ExperimentConfig config;
    const layout::LayoutTable table(b.program, config.striping,
                                    config.total_disks);
    // The DAP exists and covers every disk.
    const auto dap =
        trace::DiskAccessPattern::analyze(b.program, table, config.gen);
    ASSERT_EQ(dap.disk_count(), config.total_disks);

    // Both call families schedule without error and verify statically.
    for (const core::PowerMode mode :
         {core::PowerMode::kTpm, core::PowerMode::kDrpm}) {
      core::SchedulerOptions so;
      so.mode = mode;
      so.access = config.gen;
      const core::ScheduleResult result =
          core::schedule_power_calls(b.program, table, config.disk, so);
      analysis::AnalyzeOptions options;
      options.access = config.gen;
      analysis::AnalysisContext ctx(result, table, config.disk, options);
      analysis::AnalysisReport report;
      analysis::make_wellformed_pass()->run(ctx, report.diagnostics);
      EXPECT_TRUE(report.diagnostics.empty())
          << name << "\n" << analysis::render_text(report);
    }
  }
}

// Claim 2: "The compiler-directed proactive approach to disk power
// management is successful in improving the behavior of the DRPM based
// scheme.  On average, it brings an additional 18% energy savings over the
// hardware-based DRPM."
TEST(PaperClaims, CmdrpmBeatsReactiveDrpmOnAverage) {
  double drpm_sum = 0, cmdrpm_sum = 0, cmdrpm_time_sum = 0;
  int count = 0;
  for (workloads::Benchmark& b : workloads::all_benchmarks()) {
    experiments::ExperimentConfig config;
    experiments::Runner runner(b, config);
    drpm_sum += runner.run(experiments::Scheme::kDrpm).normalized_energy;
    const auto cmdrpm = runner.run(experiments::Scheme::kCmdrpm);
    cmdrpm_sum += cmdrpm.normalized_energy;
    cmdrpm_time_sum += cmdrpm.normalized_time;
    ++count;
  }
  const double drpm_avg = drpm_sum / count;
  const double cmdrpm_avg = cmdrpm_sum / count;
  // Paper: 26% -> 46% savings (an additional ~18 points).  Our substrate:
  // the compiler scheme must beat reactive DRPM by a clear margin...
  EXPECT_LT(cmdrpm_avg, drpm_avg - 0.05);
  // ...while erasing DRPM's double-digit performance penalty.
  EXPECT_LT(cmdrpm_time_sum / count, 1.02);
}

// Claim 3: "loop distribution and loop tiling ... can make TPM a serious
// alternative for array-based scientific codes."
TEST(PaperClaims, TransformationsMakeTpmViable) {
  // Untransformed, CMTPM finds nothing anywhere...
  double untransformed_sum = 0;
  // ...and with the better of LF+DL / TL+DL it must save for five of the
  // six benchmarks' DRPM mode and for the fissionable four under TPM.
  int tpm_winners = 0;
  int count = 0;
  for (workloads::Benchmark& b : workloads::all_benchmarks()) {
    experiments::ExperimentConfig plain;
    experiments::Runner plain_runner(b, plain);
    untransformed_sum +=
        plain_runner.run(experiments::Scheme::kCmtpm).normalized_energy;
    const double base_energy = plain_runner.base_report().total_energy;

    double best = 1.0;
    for (const auto t :
         {core::Transformation::kLFDL, core::Transformation::kTLDL}) {
      experiments::ExperimentConfig config;
      config.transform = t;
      experiments::Runner runner(b, config);
      best = std::min(best, runner.run(experiments::Scheme::kCmtpm).energy_j /
                                base_energy);
    }
    if (best < 0.95) ++tpm_winners;
    ++count;
  }
  EXPECT_NEAR(untransformed_sum / count, 1.0, 1e-6);
  // swim, mgrid, applu, mesa (the fissionable four) gain under CMTPM.
  EXPECT_GE(tpm_winners, 4);
}

// §6.2: "five out of our six benchmark codes can achieve further energy
// savings from one of the LF+DL and TL+DL versions" (all but galgel).
TEST(PaperClaims, FiveOfSixBenefitFromTransformations) {
  int winners = 0;
  for (workloads::Benchmark& b : workloads::all_benchmarks()) {
    experiments::ExperimentConfig plain;
    experiments::Runner plain_runner(b, plain);
    const double base_energy = plain_runner.base_report().total_energy;
    const double untransformed =
        plain_runner.run(experiments::Scheme::kCmdrpm).energy_j / base_energy;

    double best = 1.0;
    for (const auto t :
         {core::Transformation::kLFDL, core::Transformation::kTLDL}) {
      experiments::ExperimentConfig config;
      config.transform = t;
      experiments::Runner runner(b, config);
      best = std::min(best,
                      runner.run(experiments::Scheme::kCmdrpm).energy_j /
                          base_energy);
    }
    if (best < untransformed - 0.01) {
      ++winners;
    } else {
      EXPECT_EQ(b.name, "galgel") << "only galgel may fail to benefit";
    }
  }
  EXPECT_EQ(winners, 5);
}

}  // namespace
}  // namespace sdpm
