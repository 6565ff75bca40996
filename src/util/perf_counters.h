// Process-wide performance counters for the simulation substrate.
//
// Every Simulator run, trace generation, access walk and cache lookup
// reports into the global() instance; the sweep engine and
// `sdpm_cli bench --json` snapshot it to surface a perf trajectory
// (simulated requests/sec, trace cache hit rate, peak RSS, wall time per
// cell) that CI archives per commit.
// Counters are atomics: producers on pool workers increment concurrently,
// and incrementing once per simulation (not per request) keeps the hot
// path untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sdpm {

/// Immutable copy of the counters at one instant (plain integers, safe to
/// pass around and diff).
struct PerfSnapshot {
  std::int64_t simulations = 0;        ///< Simulator::run completions
  std::int64_t requests_simulated = 0; ///< requests replayed across all runs
  std::int64_t sim_wall_us = 0;        ///< wall time inside Simulator::run
  std::int64_t traces_generated = 0;   ///< full trace generations (cache misses included)
  std::int64_t access_walks = 0;       ///< materialized access walks run (memo misses)
  std::int64_t requests_streamed = 0;  ///< requests produced by streaming sources
  std::int64_t trace_cache_hits = 0;
  std::int64_t trace_cache_misses = 0;
  std::int64_t timeline_cache_hits = 0;
  std::int64_t cells_completed = 0;    ///< sweep cells finished
  std::int64_t cell_wall_us = 0;       ///< cumulative task time across cells

  /// Simulated requests per second of simulator wall time.
  double requests_per_sec() const;

  /// Trace cache hit rate in [0, 1]; 0 when the cache was never consulted.
  double trace_cache_hit_rate() const;

  /// Mean task wall time per completed sweep cell, in milliseconds.
  double wall_ms_per_cell() const;

  /// Difference (this - earlier), counter by counter.
  PerfSnapshot since(const PerfSnapshot& earlier) const;
};

/// Counter-by-counter difference; `after - before` reads naturally at call
/// sites that bracket a region of interest with two snapshots.
inline PerfSnapshot operator-(const PerfSnapshot& after,
                              const PerfSnapshot& before) {
  return after.since(before);
}

class PerfCounters {
 public:
  static PerfCounters& global();

  void add_simulation(std::int64_t requests, std::int64_t wall_us);
  void add_trace_generated() { traces_generated_.fetch_add(1, kRelaxed); }
  void add_access_walk() { access_walks_.fetch_add(1, kRelaxed); }
  void add_requests_streamed(std::int64_t n) {
    requests_streamed_.fetch_add(n, kRelaxed);
  }
  void add_trace_cache_hit() { trace_cache_hits_.fetch_add(1, kRelaxed); }
  void add_trace_cache_miss() { trace_cache_misses_.fetch_add(1, kRelaxed); }
  void add_timeline_cache_hit() { timeline_cache_hits_.fetch_add(1, kRelaxed); }
  void add_cell(std::int64_t wall_us);

  PerfSnapshot snapshot() const;

  /// Zero every counter.  Test-only: production consumers (the CLI, the
  /// sweep engine) must bracket their region with two snapshot() calls and
  /// diff them — a global reset would race with concurrent producers and
  /// destroy the process-wide perf trajectory.
  void reset_for_testing();

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  std::atomic<std::int64_t> simulations_{0};
  std::atomic<std::int64_t> requests_simulated_{0};
  std::atomic<std::int64_t> sim_wall_us_{0};
  std::atomic<std::int64_t> traces_generated_{0};
  std::atomic<std::int64_t> access_walks_{0};
  std::atomic<std::int64_t> requests_streamed_{0};
  std::atomic<std::int64_t> trace_cache_hits_{0};
  std::atomic<std::int64_t> trace_cache_misses_{0};
  std::atomic<std::int64_t> timeline_cache_hits_{0};
  std::atomic<std::int64_t> cells_completed_{0};
  std::atomic<std::int64_t> cell_wall_us_{0};
};

/// Peak resident set size of this process in KiB (getrusage; 0 when
/// unavailable on the platform).
std::int64_t peak_rss_kib();

/// Render a snapshot plus sweep-level context as a JSON object (the
/// BENCH_simulator.json schema consumed by CI).
std::string perf_json(const PerfSnapshot& snap, double wall_ms,
                      unsigned jobs);

}  // namespace sdpm
