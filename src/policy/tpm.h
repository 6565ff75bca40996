// Reactive traditional power management (TPM).
//
// Spins a disk down once it has been idle longer than the idleness
// threshold (paper §2); the disk stays parked until the next request,
// which then pays the full demand spin-up delay.  The threshold defaults to
// the break-even time — the classic 2-competitive fixed-threshold policy of
// Douglis et al.
//
// One walk serves every device: the ladder's parks, shallowest first, each
// firing at its own idleness timer (SCSI power conditions: Idle_B ->
// Idle_C -> Standby_Y -> Standby_Z), and the deepest park, when it has no
// timer, at the ladder's idleness threshold (the break-even time when
// unset).  The paper disk is the one-rung case.
#pragma once

#include "sim/policy.h"

namespace sdpm::policy {

class TpmPolicy final : public sim::PowerPolicy {
 public:
  /// `threshold_ms >= 0` leaves only the deepest park, firing at that
  /// threshold; `< 0` walks the ladder's timers.
  explicit TpmPolicy(TimeMs threshold_ms = -1.0)
      : threshold_ms_(threshold_ms) {}

  void before_service(sim::DiskUnit& disk, TimeMs now) override;
  void finalize(sim::DiskUnit& disk, TimeMs end) override;

  const char* name() const override { return "TPM"; }
  ReplayFn replay_kernel() const override;

 private:
  // Non-const: examining the gap emits a kBreakEven decision event per
  // rung when a tracer is attached.
  void maybe_spin_down(sim::DiskUnit& disk, TimeMs now);

  TimeMs threshold_ms_;
};

/// The kBreakEven decision event of a reactive TPM: `disk` had been idle
/// `idle_ms` at `now` against a `threshold_ms` timer for `park`; labelled
/// with the park's ladder name when the timer fired, "hold" otherwise.
void emit_break_even(obs::EventTracer& tracer, const sim::DiskUnit& disk,
                     TimeMs now, TimeMs idle_ms, TimeMs threshold_ms,
                     int park);

}  // namespace sdpm::policy
