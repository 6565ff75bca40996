// Abstract runtime power-management policy.
//
// The simulator calls these hooks while replaying a trace; concrete
// policies (reactive TPM, reactive DRPM, the compiler-directed proactive
// executor, and the no-op base) live in policy/.  A policy manipulates
// disks exclusively through the timestamped DiskUnit command API.
#pragma once

#include "ir/program.h"
#include "sim/disk_unit.h"
#include "util/units.h"

namespace sdpm::obs {
class EventTracer;
}

namespace sdpm::sim {

struct ReplayContext;  // sim/replay.h
struct SimReport;      // sim/report.h

class PowerPolicy {
 public:
  /// A statically dispatched replay kernel: the whole replay loop
  /// instantiated against a concrete policy type (sim/replay.h), so the
  /// per-item policy hooks compile to direct, inlinable calls.
  using ReplayFn = SimReport (*)(PowerPolicy&, const ReplayContext&);

  virtual ~PowerPolicy() = default;

  /// The policy's statically dispatched replay kernel, or nullptr to use
  /// the generic virtual-dispatch engine (the default).  The simulator
  /// picks the engine from this alone, with or without fault injection.
  /// Built-in final policies return sim::replay_run<Self>; wrapper/custom
  /// policies leave this alone.  Both engines are the same template, so
  /// they produce bit-identical reports (pinned by the equivalence
  /// suite).
  virtual ReplayFn replay_kernel() const { return nullptr; }

  /// Attach the observability tracer for the coming replay (nullptr =
  /// untraced).  Called by the simulator before attach(); policies emit
  /// decision events (break-even examinations, RPM-window verdicts) when
  /// `tracer_` is set.  Wrapper policies must forward to their inner
  /// policies.  Observation only — a policy's decisions must be identical
  /// with tracing on or off.
  virtual void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Called once per disk before the replay starts.
  virtual void attach(DiskUnit& disk) { (void)disk; }

  /// Called when a request for `disk` arrives at `now`, before service.
  /// Reactive policies apply any state change that should have happened
  /// during the idle gap [disk.last_completion(), now) here.
  virtual void before_service(DiskUnit& disk, TimeMs now) {
    (void)disk;
    (void)now;
  }

  /// Called after the request completes.
  virtual void after_service(DiskUnit& disk, TimeMs completion,
                             TimeMs response_ms) {
    (void)disk;
    (void)completion;
    (void)response_ms;
  }

  /// Called when the application executes a compiler-inserted power call.
  virtual void on_power_event(DiskUnit& disk, TimeMs now,
                              const ir::PowerDirective& directive) {
    (void)disk;
    (void)now;
    (void)directive;
  }

  /// Called once per disk after the last request, before energy is
  /// finalized at `end`.
  virtual void finalize(DiskUnit& disk, TimeMs end) {
    (void)disk;
    (void)end;
  }

  virtual const char* name() const = 0;

 protected:
  obs::EventTracer* tracer_ = nullptr;
};

}  // namespace sdpm::sim
