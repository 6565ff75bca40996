// SweepEngine: parallel sweeps must be bit-identical to serial Runner
// evaluation, deterministic across repeats, and must keep a failed cell's
// error in that cell's slot while every other cell completes.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/units.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {
namespace {

ExperimentConfig fast_config(Bytes stripe = kib(64)) {
  ExperimentConfig c;
  c.total_disks = 4;
  c.striping = layout::Striping{0, 4, stripe};
  c.gen.cache_bytes = kib(512);
  return c;
}

std::vector<SweepCell> two_cells() {
  std::vector<SweepCell> cells;
  for (const Bytes stripe : {kib(32), kib(64)}) {
    SweepCell cell;
    cell.label = "galgel/s" + std::to_string(stripe / 1024) + "K";
    cell.benchmark = workloads::make_galgel();
    cell.config = fast_config(stripe);
    cells.push_back(cell);
  }
  return cells;
}

void expect_same_result(const SchemeResult& a, const SchemeResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.execution_ms, b.execution_ms);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.normalized_energy, b.normalized_energy);
  EXPECT_EQ(a.normalized_time, b.normalized_time);
  EXPECT_EQ(a.power_calls, b.power_calls);
}

TEST(SweepEngine, ParallelMatchesSerialRunnerExactly) {
  const std::vector<SweepCell> cells = two_cells();
  SweepEngine engine(4);
  const std::vector<SweepCellResult> sweep = engine.run(cells);

  ASSERT_EQ(sweep.size(), cells.size());
  const std::vector<Scheme> schemes = all_schemes();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(sweep[c].label, cells[c].label);
    ASSERT_EQ(sweep[c].results.size(), schemes.size());
    Runner serial(cells[c].benchmark, cells[c].config);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      expect_same_result(sweep[c].results[s], serial.run(schemes[s]));
    }
    EXPECT_GE(sweep[c].wall_ms, 0.0);
  }
}

TEST(SweepEngine, RepeatedRunsAreIdentical) {
  const std::vector<SweepCell> cells = two_cells();
  const auto first = SweepEngine(4).run(cells);
  const auto second = SweepEngine(1).run(cells);  // serial engine, same cells
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t c = 0; c < first.size(); ++c) {
    ASSERT_EQ(first[c].results.size(), second[c].results.size());
    for (std::size_t s = 0; s < first[c].results.size(); ++s) {
      expect_same_result(first[c].results[s], second[c].results[s]);
    }
  }
}

TEST(SweepEngine, ExplicitSchemeSubsetIsHonored) {
  SweepCell cell;
  cell.label = "subset";
  cell.benchmark = workloads::make_galgel();
  cell.config = fast_config();
  cell.schemes = {Scheme::kBase, Scheme::kIdrpm};
  const auto sweep = SweepEngine(2).run({cell});
  ASSERT_EQ(sweep.size(), 1u);
  ASSERT_EQ(sweep[0].results.size(), 2u);
  EXPECT_EQ(sweep[0].results[0].scheme, Scheme::kBase);
  EXPECT_EQ(sweep[0].results[1].scheme, Scheme::kIdrpm);
  EXPECT_DOUBLE_EQ(sweep[0].results[0].normalized_energy, 1.0);
}

TEST(SweepEngine, RunAllMatchesSerialSchemes) {
  // A one-cell sweep over all seven schemes (what Session::run dispatches)
  // fans the schemes over the pool; its results must be indistinguishable
  // from a serial scheme loop on a fresh Runner.
  SweepCell cell;
  cell.label = "galgel";
  cell.benchmark = workloads::make_galgel();
  cell.config = fast_config();
  const std::vector<SweepCellResult> sweep = SweepEngine().run({cell});
  ASSERT_EQ(sweep.size(), 1u);
  ASSERT_FALSE(sweep[0].error);

  Runner serial(cell.benchmark, cell.config);
  const std::vector<Scheme> schemes = all_schemes();
  ASSERT_EQ(sweep[0].results.size(), schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    expect_same_result(sweep[0].results[s], serial.run(schemes[s]));
  }
}

TEST(SweepEngine, CellsForBenchmarksCoversAllSchemes) {
  const auto cells =
      cells_for_benchmarks(workloads::all_benchmarks(), fast_config());
  ASSERT_EQ(cells.size(), workloads::all_benchmarks().size());
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.label, cell.benchmark.name);
    EXPECT_TRUE(cell.schemes.empty());  // empty means all seven
  }
}

TEST(SweepEngine, CellFailureStaysInItsSlot) {
  // A block size that passes validation but does not divide the stripe
  // size makes trace generation throw inside the bad cell's tasks.  The
  // error stays in that cell's slot; the good cell completes and equals a
  // lone run of it.
  SweepCell bad;
  bad.label = "bad";
  bad.benchmark = workloads::make_galgel();
  bad.config = fast_config();
  bad.config.gen.block_size = kib(64) + 512;  // does not divide 64 KB
  bad.schemes = {Scheme::kBase, Scheme::kTpm};
  SweepCell good;
  good.label = "good";
  good.benchmark = workloads::make_galgel();
  good.config = fast_config();
  good.schemes = {Scheme::kBase, Scheme::kDrpm, Scheme::kCmdrpm};

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const obs::MetricsRegistry::Snapshot before = metrics.snapshot();
  const std::vector<SweepCellResult> sweep = SweepEngine(2).run({bad, good});
  const obs::MetricsRegistry::Snapshot after = metrics.snapshot();
  ASSERT_EQ(sweep.size(), 2u);

  ASSERT_TRUE(sweep[0].error);
  EXPECT_TRUE(sweep[0].results.empty());
  std::string message;
  try {
    std::rethrow_exception(sweep[0].error);
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("block size must divide"), std::string::npos)
      << message;
  EXPECT_NE(message.find(".cpp:"), std::string::npos) << message;

  EXPECT_FALSE(sweep[1].error);
  const std::vector<SweepCellResult> lone = SweepEngine(1).run({good});
  ASSERT_FALSE(lone[0].error);
  ASSERT_EQ(sweep[1].results.size(), good.schemes.size());
  ASSERT_EQ(lone[0].results.size(), good.schemes.size());
  for (std::size_t s = 0; s < good.schemes.size(); ++s) {
    expect_same_result(sweep[1].results[s], lone[0].results[s]);
  }
  // Only the completed cell counts as completed.
  EXPECT_EQ(after.counter("sweep.cells_completed") -
                before.counter("sweep.cells_completed"),
            1);
}

TEST(SweepEngine, JobsAreConfigurable) {
  EXPECT_EQ(SweepEngine(3).jobs(), 3u);
  EXPECT_GE(SweepEngine().jobs(), 1u);  // 0 resolves to default_jobs()
}

TEST(SweepEngine, MetricsAdvanceBySnapshotDiff) {
  // The global registry is process-wide and other tests contribute to it,
  // so assertions go against the bracketed diff, never absolutes.
  const std::vector<SweepCell> cells = two_cells();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const obs::MetricsRegistry::Snapshot before = metrics.snapshot();
  SweepEngine(2).run(cells);
  const obs::MetricsRegistry::Snapshot after = metrics.snapshot();
  const auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  const auto cell_wall = [](const obs::MetricsRegistry::Snapshot& snap) {
    const auto it = snap.histograms.find("sweep.cell_wall_ms");
    return it == snap.histograms.end() ? obs::MetricsRegistry::HistogramStats{}
                                       : it->second;
  };
  const auto n_cells = static_cast<std::int64_t>(cells.size());
  EXPECT_EQ(delta("sweep.cells_completed"), n_cells);
  EXPECT_GT(delta("sim.simulations"), 0);
  EXPECT_GT(delta("sim.requests"), 0);
  EXPECT_GE(delta("sim.wall_us"), 0);
  EXPECT_EQ(cell_wall(after).count - cell_wall(before).count, n_cells);
  EXPECT_GE(cell_wall(after).sum - cell_wall(before).sum, 0.0);
  EXPECT_GT(delta("trace_cache.hits") + delta("trace_cache.misses"), 0);
}

}  // namespace
}  // namespace sdpm::experiments
