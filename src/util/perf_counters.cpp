#include "util/perf_counters.h"

#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sdpm {

double PerfSnapshot::requests_per_sec() const {
  if (sim_wall_us <= 0) return 0.0;
  return static_cast<double>(requests_simulated) * 1e6 /
         static_cast<double>(sim_wall_us);
}

double PerfSnapshot::trace_cache_hit_rate() const {
  const std::int64_t lookups = trace_cache_hits + trace_cache_misses;
  if (lookups <= 0) return 0.0;
  return static_cast<double>(trace_cache_hits) /
         static_cast<double>(lookups);
}

double PerfSnapshot::wall_ms_per_cell() const {
  if (cells_completed <= 0) return 0.0;
  return static_cast<double>(cell_wall_us) / 1000.0 /
         static_cast<double>(cells_completed);
}

PerfSnapshot PerfSnapshot::since(const PerfSnapshot& earlier) const {
  PerfSnapshot d;
  d.simulations = simulations - earlier.simulations;
  d.requests_simulated = requests_simulated - earlier.requests_simulated;
  d.sim_wall_us = sim_wall_us - earlier.sim_wall_us;
  d.traces_generated = traces_generated - earlier.traces_generated;
  d.access_walks = access_walks - earlier.access_walks;
  d.requests_streamed = requests_streamed - earlier.requests_streamed;
  d.trace_cache_hits = trace_cache_hits - earlier.trace_cache_hits;
  d.trace_cache_misses = trace_cache_misses - earlier.trace_cache_misses;
  d.timeline_cache_hits = timeline_cache_hits - earlier.timeline_cache_hits;
  d.cells_completed = cells_completed - earlier.cells_completed;
  d.cell_wall_us = cell_wall_us - earlier.cell_wall_us;
  return d;
}

PerfCounters& PerfCounters::global() {
  static PerfCounters counters;
  return counters;
}

void PerfCounters::add_simulation(std::int64_t requests,
                                  std::int64_t wall_us) {
  simulations_.fetch_add(1, kRelaxed);
  requests_simulated_.fetch_add(requests, kRelaxed);
  sim_wall_us_.fetch_add(wall_us, kRelaxed);
}

void PerfCounters::add_cell(std::int64_t wall_us) {
  cells_completed_.fetch_add(1, kRelaxed);
  cell_wall_us_.fetch_add(wall_us, kRelaxed);
}

PerfSnapshot PerfCounters::snapshot() const {
  PerfSnapshot s;
  s.simulations = simulations_.load(kRelaxed);
  s.requests_simulated = requests_simulated_.load(kRelaxed);
  s.sim_wall_us = sim_wall_us_.load(kRelaxed);
  s.traces_generated = traces_generated_.load(kRelaxed);
  s.access_walks = access_walks_.load(kRelaxed);
  s.requests_streamed = requests_streamed_.load(kRelaxed);
  s.trace_cache_hits = trace_cache_hits_.load(kRelaxed);
  s.trace_cache_misses = trace_cache_misses_.load(kRelaxed);
  s.timeline_cache_hits = timeline_cache_hits_.load(kRelaxed);
  s.cells_completed = cells_completed_.load(kRelaxed);
  s.cell_wall_us = cell_wall_us_.load(kRelaxed);
  return s;
}

void PerfCounters::reset_for_testing() {
  simulations_.store(0, kRelaxed);
  requests_simulated_.store(0, kRelaxed);
  sim_wall_us_.store(0, kRelaxed);
  traces_generated_.store(0, kRelaxed);
  access_walks_.store(0, kRelaxed);
  requests_streamed_.store(0, kRelaxed);
  trace_cache_hits_.store(0, kRelaxed);
  trace_cache_misses_.store(0, kRelaxed);
  timeline_cache_hits_.store(0, kRelaxed);
  cells_completed_.store(0, kRelaxed);
  cell_wall_us_.store(0, kRelaxed);
}

std::int64_t peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::int64_t>(usage.ru_maxrss);  // KiB
#endif
#else
  return 0;
#endif
}

std::string perf_json(const PerfSnapshot& snap, double wall_ms,
                      unsigned jobs) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"wall_ms\": " << wall_ms << ",\n"
     << "  \"simulations\": " << snap.simulations << ",\n"
     << "  \"requests_simulated\": " << snap.requests_simulated << ",\n"
     << "  \"requests_per_sec\": " << snap.requests_per_sec() << ",\n"
     << "  \"traces_generated\": " << snap.traces_generated << ",\n"
     << "  \"access_walks\": " << snap.access_walks << ",\n"
     << "  \"requests_streamed\": " << snap.requests_streamed << ",\n"
     << "  \"trace_cache_hits\": " << snap.trace_cache_hits << ",\n"
     << "  \"trace_cache_misses\": " << snap.trace_cache_misses << ",\n"
     << "  \"trace_cache_hit_rate\": " << snap.trace_cache_hit_rate()
     << ",\n"
     << "  \"timeline_cache_hits\": " << snap.timeline_cache_hits << ",\n"
     << "  \"cells_completed\": " << snap.cells_completed << ",\n"
     << "  \"wall_ms_per_cell\": " << snap.wall_ms_per_cell() << ",\n"
     << "  \"peak_rss_kib\": " << peak_rss_kib() << "\n"
     << "}";
  return os.str();
}

}  // namespace sdpm
