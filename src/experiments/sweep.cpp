#include "experiments/sweep.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "util/once.h"
#include "util/thread_pool.h"

namespace sdpm::experiments {

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

std::vector<SweepCellResult> SweepEngine::run(
    const std::vector<SweepCell>& cells) {
  // Per-cell shared state: the Runner is built lazily by whichever task of
  // the cell arrives first (compile + Base run happen once), then every
  // scheme task of the cell reuses it.
  struct CellState {
    OnceState once;
    std::unique_ptr<Runner> runner;
    std::atomic<std::int64_t> task_us{0};
  };

  std::vector<SweepCellResult> results(cells.size());
  std::vector<CellState> state(cells.size());
  std::vector<std::function<void()>> tasks;

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const SweepCell& cell = cells[c];
    const std::vector<Scheme> schemes =
        cell.schemes.empty() ? all_schemes() : cell.schemes;
    results[c].label = cell.label;
    results[c].results.resize(schemes.size());

    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const Scheme scheme = schemes[s];
      tasks.push_back([&cells, &results, &state, c, s, scheme] {
        const auto started = std::chrono::steady_clock::now();
        CellState& st = state[c];
        st.once.call([&] {
          st.runner = std::make_unique<Runner>(cells[c].benchmark,
                                               cells[c].config);
          st.runner->base_report();  // shared prerequisite, computed once
        });
        results[c].results[s] = st.runner->run(scheme);
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started);
        st.task_us.fetch_add(us.count(), std::memory_order_relaxed);
      });
    }
  }

  run_parallel(std::move(tasks), jobs_);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  static obs::MetricsRegistry::Counter& cells_completed =
      metrics.counter("sweep.cells_completed");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::int64_t us = state[c].task_us.load(std::memory_order_relaxed);
    results[c].wall_ms = static_cast<double>(us) / 1000.0;
    cells_completed.fetch_add(1, std::memory_order_relaxed);
    metrics.observe("sweep.cell_wall_ms", results[c].wall_ms);
  }
  return results;
}

std::vector<SweepCell> cells_for_benchmarks(
    const std::vector<workloads::Benchmark>& benchmarks,
    const ExperimentConfig& config) {
  std::vector<SweepCell> cells;
  cells.reserve(benchmarks.size());
  for (const workloads::Benchmark& b : benchmarks) {
    SweepCell cell;
    cell.label = b.name;
    cell.benchmark = b;
    cell.config = config;
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace sdpm::experiments
