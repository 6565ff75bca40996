#include "policy/drpm.h"

#include "obs/tracer.h"
#include "sim/replay.h"

namespace sdpm::policy {

void DrpmPolicy::attach(sim::DiskUnit& disk) {
  state_.emplace(disk.id(), DiskState{});
}

void DrpmPolicy::apply_idle_steps(sim::DiskUnit& disk, TimeMs now,
                                  bool settle_by_now) const {
  if (idle_step_ms_ <= 0) return;
  const TimeMs idle_start = disk.last_completion();
  // One step per full idle_step_ms of observed idleness, each applied at
  // the instant its threshold fired.
  int level = disk.target_level();
  for (TimeMs t = idle_start + idle_step_ms_; t <= now && level > 0;
       t += idle_step_ms_) {
    if (settle_by_now &&
        t + disk.params().rpm_transition_time(level, level - 1) > now) {
      break;
    }
    --level;
    disk.set_rpm_level(t, level);
  }
}

void DrpmPolicy::before_service(sim::DiskUnit& disk, TimeMs now) {
  apply_idle_steps(disk, now, /*settle_by_now=*/false);
}

void DrpmPolicy::finalize(sim::DiskUnit& disk, TimeMs end) {
  apply_idle_steps(disk, end, /*settle_by_now=*/true);
}

void DrpmPolicy::after_service(sim::DiskUnit& disk, TimeMs completion,
                               TimeMs response_ms) {
  DiskState& st = state_[disk.id()];
  st.window_sum += response_ms;
  ++st.window_count;
  const int n = disk.params().window_size();
  if (st.window_count < n) return;

  const double mean = st.window_sum / static_cast<double>(st.window_count);
  st.window_sum = 0;
  st.window_count = 0;

  if (st.prev_mean < 0) {
    // First full window: establish the reference, keep the speed.
    st.prev_mean = mean;
    return;
  }

  const double delta = (mean - st.prev_mean) / st.prev_mean;
  st.prev_mean = mean;
  const auto& params = disk.params();
  const int level = disk.target_level();
  const bool raise = delta > params.upper_tolerance();
  const bool lower =
      !raise && delta < params.lower_tolerance() && level > 0;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kRpmWindow;
    ev.disk = disk.id();
    ev.t0 = completion;
    ev.t1 = completion;
    ev.value = delta;
    ev.level = raise ? params.max_level() : (lower ? level - 1 : level);
    ev.label = raise ? "raise" : (lower ? "lower" : "hold");
    tracer_->emit(ev);
  }
  if (raise) {
    // Response times degraded beyond tolerance: restore full speed.
    disk.set_rpm_level(completion, params.max_level());
  } else if (lower) {
    // Load is light; drop one RPM step.
    disk.set_rpm_level(completion, level - 1);
  }
}


sim::PowerPolicy::ReplayFn DrpmPolicy::replay_kernel() const {
  return &sim::replay_run<DrpmPolicy>;
}

}  // namespace sdpm::policy
