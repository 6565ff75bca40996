// Typed simulation events — the vocabulary of the observability layer.
//
// Every event is timestamped in *simulated* milliseconds (the replay's
// app/disk clocks), never wall-clock time, so a fixed-seed run produces a
// byte-identical event stream on every machine.  The one exception is
// kServiceStage, stamped in wall milliseconds since the daemon started
// (the service layer has no simulated clock) — consumers that require
// determinism should ignore that kind.
//
// Event is a flat POD rather than a variant: the tracer fast path copies
// it by value, sinks switch on `kind`, and unused fields stay at their
// zero defaults.  The field meaning per kind is documented on the enum.
#pragma once

#include <cstdint>

#include "disk/power_state.h"
#include "util/units.h"

namespace sdpm::obs {

enum class EventKind {
  /// Disk `disk` spent [t0, t1] in power state `state` (at RPM level
  /// `level` when spinning) consuming `energy_j`.  Emitted by DiskUnit as
  /// energy is integrated; adjacent segments of one state may be split
  /// across several events (sinks that build timelines merge them).
  /// `value` carries the exact duration the breakdown accumulated —
  /// recomputing t1 - t0 can differ in the last bits, and consumers that
  /// reconcile against EnergyBreakdown must match it exactly.
  kStateSegment,
  /// A power command took effect on `disk` at t0.  `label` is "spin_up",
  /// "set_rpm" (then `level` is the target) or, for a park, the park's
  /// ladder state name ("standby" on the paper disk; "idle_b", ...,
  /// "standby_z" on scsi_multi_idle), with `value` the park index.
  /// Commands that no-op (already in the target state, or no ladder edge
  /// for the move) are not reported.
  kDirective,
  /// A park / set_rpm command was silently dropped by fault injection
  /// before reaching `disk` at t0; `label` and `value` as for kDirective.
  kDirectiveDropped,
  /// A request found `disk` in standby at t0 and paid a demand spin-up.
  kDemandSpinUp,
  /// An injected spin-up failure on `disk`: the attempt started at t0 and
  /// the retry backs off for `value` ms.
  kSpinUpRetry,
  /// An injected transient media error on `disk` at t0; `value` is 1 when
  /// the faulty sector was newly remapped to the spare area.
  kMediaError,
  /// One serviced request on `disk`: issued at t0, completed at t1,
  /// stalling the application for `value` ms over `value2` bytes.
  kService,
  /// A reactive TPM examined the idle gap of `disk` at t0 for one park:
  /// idle for `value` ms against that park's `value2` ms timer; `label` is
  /// the park's ladder state name when the timer fired, "hold" otherwise.
  kBreakEven,
  /// A DRPM window decision on `disk` at t0: the window-mean response
  /// delta was `value`; `label` is "raise", "lower" or "hold", and
  /// `level` is the resulting target level.
  kRpmWindow,
  /// Scoped span delimiters (`label` names the span), e.g. one "run" span
  /// wrapping each simulation on the simulated clock.
  kSpanBegin,
  kSpanEnd,
  /// One service-lifecycle stage of a daemon job: [t0, t1] are wall ms
  /// since the daemon started (there is no simulated clock at the service
  /// layer), `label` is the stage ("queued", "eval", ...), `value` is the
  /// job id and `level` the client lane.  Carries `trace_id` so the
  /// wall-time service lane can be stitched to the simulated-time disk
  /// tracks of the same job.
  kServiceStage,
};

const char* to_string(EventKind kind);

/// One observability event.  Fields not listed for a kind above are zero.
struct Event {
  EventKind kind = EventKind::kStateSegment;
  int disk = -1;  ///< target disk; -1 for non-disk-scoped events
  TimeMs t0 = 0;  ///< event (or interval start) timestamp
  TimeMs t1 = 0;  ///< interval end; equals t0 for instantaneous events
  disk::PowerState state = disk::PowerState::kIdle;  ///< kStateSegment only
  int level = 0;        ///< RPM level where meaningful
  Joules energy_j = 0;  ///< kStateSegment only
  double value = 0;     ///< kind-specific scalar (see enum docs)
  double value2 = 0;    ///< second kind-specific scalar
  /// Static or emit-scoped C string; sinks must format it immediately and
  /// never retain the pointer.
  const char* label = nullptr;
  /// Client-propagated trace correlation id; 0 (the default) means
  /// untraced and sinks omit it, keeping pre-existing streams byte-stable.
  std::uint64_t trace_id = 0;
};

}  // namespace sdpm::obs
