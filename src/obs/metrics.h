// Named-metric registry: the process's one counter store.
//
// Metrics are registered by name at first use:
//
//   counters   monotonically increasing int64 (atomic; hot sites cache the
//              returned reference, so steady-state increments are one
//              relaxed fetch_add with no lock),
//   gauges     last-write-wins doubles (peak RSS, last run's energy), and
//   histograms util::Histogram distributions (idle-period lengths,
//              service-latency stalls), guarded by the registry mutex.
//
// Thread-safety: every recording entry point (counter/add, set_gauge,
// observe) and snapshot() is safe to call concurrently — the daemon records
// from accept, worker and watchdog threads at once.  Counter increments on
// a cached handle are a single relaxed fetch_add; gauges and histograms
// take the registry mutex per call, so per-request histogram recording on
// a hot path should prefer obs::LatencyHistogram (sharded, see latency.h)
// and fold into the registry on snapshot instead.
//
// The simulator (sim.simulations, sim.requests, sim.wall_us), the trace
// layer (trace.walks_run, trace.sweeps_skipped, trace.generated), the
// trace cache (trace_cache.hits/misses), the runner
// (runner.timeline_cache_hits), the sweep engine (sweep.cells_completed,
// sweep.cell_wall_ms), the API session and the daemon all report into
// global().  Consumers bracket a region with two snapshot() calls and diff
// them by name (Snapshot::counter); `sdpm_cli run|bench --format metrics`
// renders it as JSON with deterministically sorted keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace sdpm::obs {

class MetricsRegistry {
 public:
  using Counter = std::atomic<std::int64_t>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry.
  static MetricsRegistry& global();

  /// Get-or-create the counter `name`.  The reference stays valid for the
  /// registry's lifetime (including across reset_for_testing, which zeroes
  /// values but never removes metrics), so call sites may cache it.
  Counter& counter(const std::string& name);

  /// Increment convenience for call sites too cold to cache the handle.
  void add(const std::string& name, std::int64_t delta = 1) {
    counter(name).fetch_add(delta, std::memory_order_relaxed);
  }

  /// Set gauge `name` (last write wins).
  void set_gauge(const std::string& name, double value);

  /// Record one sample into histogram `name` (created on first use).
  void observe(const std::string& name, double sample);

  /// Immutable copy of everything, keys sorted.
  struct HistogramStats {
    std::int64_t count = 0;
    double mean = 0;
    double sum = 0;  // populated in snapshot(); not part of to_json()
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
  };
  struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;

    /// Counter `name`, or 0 when it was never created: two snapshots
    /// diff as `after.counter(n) - before.counter(n)`.
    std::int64_t counter(const std::string& name) const;
  };
  Snapshot snapshot() const;

  /// Render a snapshot as one deterministic JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}.
  std::string to_json() const;

  /// Zero every counter, gauge and histogram (names survive, handles stay
  /// valid).  Test-only: production code asserts deltas via snapshots.
  void reset_for_testing();

 private:
  mutable std::mutex mutex_;
  // unique_ptr gives counters a stable address across map growth.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sdpm::obs
