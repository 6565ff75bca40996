#include "policy/tpm.h"

#include "obs/tracer.h"
#include "sim/replay.h"

namespace sdpm::policy {

void emit_break_even(obs::EventTracer& tracer, const sim::DiskUnit& disk,
                     TimeMs now, TimeMs idle_ms, TimeMs threshold_ms,
                     int park) {
  obs::Event ev;
  ev.kind = obs::EventKind::kBreakEven;
  ev.disk = disk.id();
  ev.t0 = now;
  ev.t1 = now;
  ev.value = idle_ms;
  ev.value2 = threshold_ms;
  ev.label = idle_ms > threshold_ms ? disk.params().park_name(park).c_str()
                                    : "hold";
  tracer.emit(ev);
}

void TpmPolicy::maybe_spin_down(sim::DiskUnit& disk, TimeMs now) {
  const disk::DiskParameters& params = disk.params();
  const TimeMs idle_start = disk.last_completion();
  const TimeMs idle = now - idle_start;
  // Walk the parks shallowest first (the validator guarantees deeper parks
  // never have shorter timers); each expired timer deepens one rung,
  // applied retroactively at the exact timer instant.  An explicit
  // threshold leaves only the deepest rung.
  const bool fixed = threshold_ms_ >= 0;
  for (int park = fixed ? 0 : params.park_count() - 1; park >= 0; --park) {
    TimeMs timer = fixed ? threshold_ms_ : params.park_timer_ms(park);
    if (timer < 0) {
      // Only the deepest park falls back to the idleness threshold.
      if (park != 0) continue;
      timer = params.effective_idleness_threshold();
    }
    if (tracer_ != nullptr) {
      emit_break_even(*tracer_, disk, now, idle, timer, park);
    }
    if (idle <= timer) break;  // deeper timers are no shorter
    disk.park_to(idle_start + timer, park);
  }
}

void TpmPolicy::before_service(sim::DiskUnit& disk, TimeMs now) {
  maybe_spin_down(disk, now);
}

void TpmPolicy::finalize(sim::DiskUnit& disk, TimeMs end) {
  maybe_spin_down(disk, end);
}


sim::PowerPolicy::ReplayFn TpmPolicy::replay_kernel() const {
  return &sim::replay_run<TpmPolicy>;
}

}  // namespace sdpm::policy
