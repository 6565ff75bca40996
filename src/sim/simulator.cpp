#include "sim/simulator.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/replay.h"
#include "util/error.h"

namespace sdpm::sim {

SimReport simulate(const trace::Trace& trace,
                   const disk::DiskParameters& params, PowerPolicy& policy,
                   const SimOptions& options) {
  SDPM_REQUIRE(trace.total_disks >= 1, "trace must name at least one disk");
  options.faults.validate();
  const auto started = std::chrono::steady_clock::now();
  FaultModel model(options.faults);

  ReplayContext ctx;
  ctx.trace = &trace;
  ctx.params = &params;
  ctx.options = &options;
  ctx.faults = options.faults.enabled() ? &model : nullptr;
  // Resolve the tracer exactly once per run: nullptr when absent or
  // sink-less, so every emission site is one predictable null test.
  ctx.tracer = obs::effective_tracer(options.tracer);

  // The policy's static kernel (replay_run<ConcretePolicy>) when it has
  // one, the generic virtual engine (replay_run<PowerPolicy>, the same
  // template) otherwise.
  PowerPolicy::ReplayFn engine = policy.replay_kernel();
  if (engine == nullptr) engine = &replay_run<PowerPolicy>;

  SimReport report = engine(policy, ctx);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  static obs::MetricsRegistry::Counter& simulations =
      obs::MetricsRegistry::global().counter("sim.simulations");
  static obs::MetricsRegistry::Counter& requests =
      obs::MetricsRegistry::global().counter("sim.requests");
  static obs::MetricsRegistry::Counter& wall_us =
      obs::MetricsRegistry::global().counter("sim.wall_us");
  simulations.fetch_add(1, std::memory_order_relaxed);
  requests.fetch_add(report.requests, std::memory_order_relaxed);
  wall_us.fetch_add(elapsed.count(), std::memory_order_relaxed);
  return report;
}

}  // namespace sdpm::sim
