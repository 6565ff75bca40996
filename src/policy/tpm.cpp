#include "policy/tpm.h"

#include "obs/tracer.h"
#include "sim/replay.h"

namespace sdpm::policy {

TimeMs TpmPolicy::effective_threshold(const sim::DiskUnit& disk) const {
  return threshold_ms_ >= 0 ? threshold_ms_
                            : disk.params().break_even_time();
}

void TpmPolicy::maybe_park_multi(sim::DiskUnit& disk, TimeMs now) {
  const disk::DiskParameters& params = disk.params();
  const TimeMs idle_start = disk.last_completion();
  // Walk the timer chain shallowest park first (the validator guarantees
  // deeper parks never have shorter timers); each expired timer deepens
  // one rung, applied retroactively at the exact timer instant.
  for (int park = params.park_count() - 1; park >= 0; --park) {
    TimeMs timer = params.park_timer_ms(park);
    if (timer < 0) {
      // Only the deepest park falls back to the break-even threshold.
      if (park != 0) continue;
      timer = params.effective_idleness_threshold();
    }
    const bool fire = now - idle_start > timer;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kBreakEven;
      ev.disk = disk.id();
      ev.t0 = now;
      ev.t1 = now;
      ev.value = now - idle_start;
      ev.value2 = timer;
      ev.label = fire ? params.park_name(park).c_str() : "hold";
      tracer_->emit(ev);
    }
    if (!fire) break;  // deeper timers are no shorter; none of them fired
    disk.park_to(idle_start + timer, park);
  }
}

bool TpmPolicy::uses_park_timers(const disk::DiskParameters& params) const {
  if (threshold_ms_ >= 0) return false;
  for (int park = 0; park < params.park_count(); ++park) {
    if (params.park_timer_ms(park) >= 0) return true;
  }
  return false;
}

void TpmPolicy::maybe_spin_down(sim::DiskUnit& disk, TimeMs now) {
  if (uses_park_timers(disk.params())) {
    maybe_park_multi(disk, now);
    return;
  }
  if (disk.heading_to_standby()) return;
  const TimeMs idle_start = disk.last_completion();
  const TimeMs threshold = effective_threshold(disk);
  const bool fire = now - idle_start > threshold;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kBreakEven;
    ev.disk = disk.id();
    ev.t0 = now;
    ev.t1 = now;
    ev.value = now - idle_start;
    ev.value2 = threshold;
    ev.label = fire ? "spin_down" : "hold";
    tracer_->emit(ev);
  }
  if (fire) {
    // The timeout fired during the idle gap; apply it retroactively at the
    // exact timeout instant.
    disk.spin_down(idle_start + threshold);
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
