// Workloads: Table 2 characteristics and the §6 structural properties.
#include <gtest/gtest.h>

#include "core/fission.h"
#include "core/tiling.h"
#include "experiments/runner.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::workloads {
namespace {

class BenchmarkTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllSix, BenchmarkTest,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& param_info) { return param_info.param; });

TEST_P(BenchmarkTest, ProgramValidates) {
  const Benchmark b = make_benchmark(GetParam());
  b.program.validate();
  EXPECT_EQ(b.name, GetParam());
  EXPECT_GT(b.program.nests.size(), 0u);
}

TEST_P(BenchmarkTest, DataSizeMatchesTable2) {
  const Benchmark b = make_benchmark(GetParam());
  const double mb =
      static_cast<double>(b.program.total_data_bytes()) / (1024.0 * 1024.0);
  // Within 5% of the paper's reported dataset size.
  EXPECT_NEAR(mb, b.paper.data_mb, b.paper.data_mb * 0.05);
}

TEST_P(BenchmarkTest, RequestCountMatchesTable2) {
  Benchmark b = make_benchmark(GetParam());
  experiments::ExperimentConfig config;
  experiments::Runner runner(b, config);
  const auto& base = runner.base_report();
  EXPECT_NEAR(static_cast<double>(base.requests),
              static_cast<double>(b.paper.disk_requests),
              0.05 * static_cast<double>(b.paper.disk_requests));
}

TEST_P(BenchmarkTest, BaseEnergyAndTimeMatchTable2) {
  Benchmark b = make_benchmark(GetParam());
  experiments::ExperimentConfig config;
  experiments::Runner runner(b, config);
  const auto& base = runner.base_report();
  EXPECT_NEAR(base.total_energy, b.paper.base_energy_j,
              0.06 * b.paper.base_energy_j);
  EXPECT_NEAR(base.execution_ms, b.paper.execution_ms,
              0.06 * b.paper.execution_ms);
}

TEST_P(BenchmarkTest, Deterministic) {
  Benchmark b1 = make_benchmark(GetParam());
  Benchmark b2 = make_benchmark(GetParam());
  experiments::ExperimentConfig config;
  experiments::Runner r1(b1, config);
  experiments::Runner r2(b2, config);
  EXPECT_DOUBLE_EQ(r1.base_report().total_energy,
                   r2.base_report().total_energy);
  EXPECT_DOUBLE_EQ(r1.base_report().execution_ms,
                   r2.base_report().execution_ms);
}

TEST(Benchmarks, AllSixPresent) {
  const auto all = all_benchmarks();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "wupwise");
  EXPECT_EQ(all[5].name, "galgel");
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("nosuch"), Error);
}

TEST(Benchmarks, FissionabilityMatchesPaper) {
  // §6.2: "wupwise and galgel do not contain any fissionable loop nests".
  for (const Benchmark& b : all_benchmarks()) {
    core::FissionOptions fo;
    const core::FissionResult fr = core::apply_loop_fission(b.program, fo);
    const bool expected =
        b.name != "wupwise" && b.name != "galgel";
    EXPECT_EQ(fr.any_fissioned, expected) << b.name;
  }
}

TEST(Benchmarks, TilingLayoutStepMatchesPaper) {
  // §6.2: TL+DL yields additional savings for wupwise, applu and mesa; the
  // other three have no array private to their costliest nest.
  for (const Benchmark& b : all_benchmarks()) {
    core::TilingOptions to;
    const core::TilingResult tr = core::apply_loop_tiling(b.program, to);
    const bool expect_reshape =
        b.name == "wupwise" || b.name == "applu" || b.name == "mesa";
    EXPECT_EQ(!tr.reshaped_arrays.empty(), expect_reshape) << b.name;
  }
}

TEST(Benchmarks, WupwiseLayoutMismatchDetected) {
  // wupwise's M2 is stored column-major but read row-wise: the blocked
  // reshape must report an access-order permutation (the paper's layout
  // transformation).
  const Benchmark b = make_wupwise();
  core::TilingOptions to;
  const core::TilingResult tr = core::apply_loop_tiling(b.program, to);
  EXPECT_FALSE(tr.permuted_arrays.empty());
}

TEST(Benchmarks, GalgelConformsToLayout) {
  // galgel's accesses conform: even when tiled, nothing needs permuting.
  const Benchmark b = make_galgel();
  core::TilingOptions to;
  const core::TilingResult tr = core::apply_loop_tiling(b.program, to);
  EXPECT_TRUE(tr.permuted_arrays.empty());
}

TEST(Benchmarks, SwimHasThreeArrayGroups) {
  const Benchmark b = make_swim();
  EXPECT_EQ(core::array_groups(b.program).size(), 3u);
}

TEST(Benchmarks, MesaHasFourArrayGroups) {
  const Benchmark b = make_mesa();
  EXPECT_EQ(core::array_groups(b.program).size(), 4u);
}

TEST(Benchmarks, GalgelIsOneArrayGroup) {
  const Benchmark b = make_galgel();
  EXPECT_EQ(core::array_groups(b.program).size(), 1u);
}

}  // namespace
}  // namespace sdpm::workloads
