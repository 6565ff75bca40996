#include "sim/simulator.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/replay.h"
#include "util/error.h"

namespace sdpm::sim {

Simulator::Simulator(const trace::Trace& trace,
                     const disk::DiskParameters& params, PowerPolicy& policy,
                     const SimOptions& options)
    : trace_(trace), params_(params), policy_(policy), options_(options) {
  SDPM_REQUIRE(trace.total_disks >= 1, "trace must name at least one disk");
  options_.faults.validate();
}

SimReport Simulator::run() {
  SDPM_REQUIRE(!ran_,
               "Simulator::run may only be called once per instance; "
               "construct a fresh Simulator (and policy) to replay again");
  ran_ = true;
  const auto started = std::chrono::steady_clock::now();
  FaultModel model(options_.faults);
  FaultModel* faults = options_.faults.enabled() ? &model : nullptr;

  // Resolve the tracer exactly once per run: nullptr when absent or
  // sink-less, so every emission site below is one predictable null test.
  obs::EventTracer* tracer = obs::effective_tracer(options_.tracer);

  ReplayContext ctx;
  ctx.trace = &trace_;
  ctx.params = &params_;
  ctx.options = &options_;
  ctx.faults = faults;
  ctx.tracer = tracer;

  // The policy's static kernel (replay_run<ConcretePolicy>) when it has
  // one, the generic virtual engine (replay_run<PowerPolicy>, the same
  // template) otherwise.
  PowerPolicy::ReplayFn engine = policy_.replay_kernel();
  if (engine == nullptr) engine = &replay_run<PowerPolicy>;

  SimReport report = engine(policy_, ctx);
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

SimReport simulate(const trace::Trace& trace,
                   const disk::DiskParameters& params, PowerPolicy& policy,
                   const SimOptions& options) {
  return Simulator(trace, params, policy, options).run();
}

}  // namespace sdpm::sim
