#include "trace/request.h"

#include "util/error.h"

namespace sdpm::trace {

Trace repeat_trace(const Trace& trace, int timesteps) {
  SDPM_REQUIRE(timesteps >= 1, "repeat_trace needs timesteps >= 1");
  Trace out;
  out.total_disks = trace.total_disks;
  out.compute_total_ms = trace.compute_total_ms * timesteps;
  out.bytes_transferred = trace.bytes_transferred * timesteps;
  out.requests.reserve(trace.requests.size() *
                       static_cast<std::size_t>(timesteps));
  out.power_events.reserve(trace.power_events.size() *
                           static_cast<std::size_t>(timesteps));
  const std::int64_t iters_per_step =
      trace.requests.empty() ? 0 : trace.requests.back().global_iter + 1;
  for (int t = 0; t < timesteps; ++t) {
    const TimeMs shift = trace.compute_total_ms * t;
    for (Request r : trace.requests) {
      r.arrival_ms += shift;
      r.global_iter += iters_per_step * t;
      out.requests.push_back(r);
    }
    for (PowerEvent e : trace.power_events) {
      e.app_time_ms += shift;
      e.global_iter += iters_per_step * t;
      out.power_events.push_back(e);
    }
  }
  return out;
}

}  // namespace sdpm::trace
