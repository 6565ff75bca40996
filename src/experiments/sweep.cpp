#include "experiments/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "obs/sim_metrics.h"
#include "util/once.h"
#include "util/thread_pool.h"

namespace sdpm::experiments {

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

std::vector<SweepCellResult> SweepEngine::run(
    const std::vector<SweepCell>& cells) {
  // Per-cell shared state: the Runner is built lazily by whichever task of
  // the cell arrives first (compile + Base run happen once), then every
  // scheme task of the cell reuses it.  A failed build is rethrown to each
  // of the cell's tasks (OnceState), so each lands in its own error slot.
  struct CellState {
    OnceState once;
    std::unique_ptr<Runner> runner;
    std::atomic<std::int64_t> task_us{0};
    std::vector<std::exception_ptr> errors;  ///< one per scheme task
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
    state[c].errors.resize(schemes.size());

    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const Scheme scheme = schemes[s];
      tasks.push_back([&cells, &results, &state, c, s, scheme] {
        const auto started = std::chrono::steady_clock::now();
        CellState& st = state[c];
        try {
          st.once.call([&] {
            st.runner = std::make_unique<Runner>(cells[c].benchmark,
                                                 cells[c].config);
            st.runner->base_report();  // shared prerequisite, computed once
          });
          results[c].results[s] = st.runner->run(scheme);
        } catch (...) {
          st.errors[s] = std::current_exception();
        }
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started);
        st.task_us.fetch_add(us.count(), std::memory_order_relaxed);
      });
    }
  }

  // No task throws (each keeps its error); no more workers than tasks.
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, tasks.size()));
  if (workers > 0) run_parallel(std::move(tasks), workers);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  static obs::MetricsRegistry::Counter& cells_completed =
      metrics.counter("sweep.cells_completed");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellState& st = state[c];
    SweepCellResult& result = results[c];
    const std::int64_t us = st.task_us.load(std::memory_order_relaxed);
    result.wall_ms = static_cast<double>(us) / 1000.0;
    const auto failed =
        std::find_if(st.errors.begin(), st.errors.end(),
                     [](const std::exception_ptr& e) { return e != nullptr; });
    if (failed != st.errors.end()) {
      result.error = *failed;
      result.results.clear();
      continue;
    }
    if (cells[c].record_base_metrics) {
      obs::record_report_metrics(metrics, st.runner->base_report());
    }
    cells_completed.fetch_add(1, std::memory_order_relaxed);
    metrics.observe("sweep.cell_wall_ms", result.wall_ms);
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
