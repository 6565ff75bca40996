// Trace-driven, closed-loop disk-subsystem simulator.
//
// Replays a trace against a bank of DiskUnits under a PowerPolicy.  The
// application model matches the paper's benchmarks: a single thread that
// computes (think time = the gap between consecutive compute-timeline
// timestamps), issues one blocking I/O request at a time, and executes
// compiler-inserted power calls asynchronously (their Tm overhead is
// already folded into the trace's compute timeline).  Every I/O stall —
// queueing behind a transition, demand spin-up, slow service at reduced
// RPM — pushes the application's completion time out, which is how power
// management's performance cost (paper Fig. 4/6/8) arises.
//
// The input is always a materialized trace::Trace (paper Fig. 1: one
// generated trace per scheme, fed to a trace-driven simulator).  The
// engine is chosen from the policy alone: its static kernel when
// replay_kernel() returns one, the generic virtual engine otherwise.
#pragma once

#include "disk/parameters.h"
#include "sim/faults.h"
#include "sim/policy.h"
#include "sim/report.h"
#include "trace/request.h"

namespace sdpm::obs {
class EventTracer;
}

namespace sdpm::sim {

/// Replay discipline.
enum class ReplayMode {
  /// The application blocks on each request; think times come from the
  /// compute-timeline deltas and every stall pushes later requests out
  /// (the paper's single-application model; the default).
  kClosedLoop,
  /// Requests fire at their recorded timestamps regardless of completion
  /// (classic DiskSim open-loop replay; disks queue FIFO).  Useful for
  /// replaying externally captured traces.  The service step is the
  /// closed loop's: each response, measured from the recorded timestamp,
  /// reaches the policy's after_service.
  kOpenLoop,
};

/// Replay configuration beyond the trace itself.
struct SimOptions {
  ReplayMode mode = ReplayMode::kClosedLoop;
  /// Fault-injection configuration; the default FaultConfig::none()
  /// reproduces the fault-free simulator bit for bit.
  FaultConfig faults = FaultConfig::none();
  /// Record the response time of every request in SimReport::responses
  /// (index-aligned with the trace's request order).  Off by default: the
  /// histogram statistics are always kept, but only consumers that need
  /// the full vector — measured per-nest timelines, per-request asserts in
  /// tests — should pay the O(requests) allocation.
  bool capture_responses = false;
  /// Record a BusyPeriod per serviced request in DiskReport::busy_periods.
  /// Off by default (it is a per-request push_back on the hot path); the
  /// oracle post-processors (ITPM/IDRPM) and the idle-gap profilers are
  /// the only consumers, and the runner enables it for the Base replay
  /// they read.
  bool capture_busy_periods = false;
  /// Observability tracer (not owned, may be nullptr or sink-less).
  /// simulate() resolves it once via obs::effective_tracer(), so the
  /// untraced replay pays nothing beyond one null test per emission site
  /// and produces bit-identical results either way.
  obs::EventTracer* tracer = nullptr;
};

/// Replay `trace` under `policy` on disks of model `params`.  The policy
/// keeps the per-disk state it built during the replay, so a second replay
/// needs a fresh policy to reproduce the first.
SimReport simulate(const trace::Trace& trace,
                   const disk::DiskParameters& params, PowerPolicy& policy,
                   const SimOptions& options = {});

}  // namespace sdpm::sim
