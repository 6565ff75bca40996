#include "policy/adaptive_tpm.h"

#include <algorithm>

#include "policy/tpm.h"
#include "sim/replay.h"
#include "util/error.h"

namespace sdpm::policy {

void AdaptiveTpmPolicy::attach(sim::DiskUnit& disk) {
  SDPM_REQUIRE(options_.adjust > 1.0, "adjust factor must exceed 1");
  const TimeMs initial = options_.initial_threshold_ms >= 0
                             ? options_.initial_threshold_ms
                             : disk.params().effective_idleness_threshold();
  threshold_[disk.id()] =
      std::clamp(initial, options_.min_threshold_ms,
                 options_.max_threshold_ms);
}

TimeMs AdaptiveTpmPolicy::threshold_of(int disk_id) const {
  const auto it = threshold_.find(disk_id);
  return it == threshold_.end() ? -1.0 : it->second;
}

void AdaptiveTpmPolicy::set_threshold(int disk_id, TimeMs threshold_ms) {
  threshold_[disk_id] = std::clamp(threshold_ms, options_.min_threshold_ms,
                                   options_.max_threshold_ms);
}

void AdaptiveTpmPolicy::maybe_spin_down(sim::DiskUnit& disk, TimeMs now) {
  if (disk.current_park() >= 0) return;
  const disk::DiskParameters& params = disk.params();
  TimeMs& threshold = threshold_[disk.id()];
  const TimeMs idle_start = disk.last_completion();
  const TimeMs gap = now - idle_start;
  if (tracer_ != nullptr) {
    emit_break_even(*tracer_, disk, now, gap, threshold,
                    params.default_park());
  }
  if (gap <= threshold) return;

  disk.park_to(idle_start + threshold, params.default_park());

  // Judge the decision against the break-even length of the *remaining*
  // idleness (the part spent after the timeout): a wake-up soon after the
  // spin-down means the threshold was too eager.
  const TimeMs standby_span = gap - threshold;
  const TimeMs break_even = params.break_even_time();
  if (standby_span < break_even) {
    threshold = std::min(threshold * options_.adjust,
                         options_.max_threshold_ms);
  } else {
    threshold = std::max(threshold / options_.adjust,
                         options_.min_threshold_ms);
  }
}

void AdaptiveTpmPolicy::before_service(sim::DiskUnit& disk, TimeMs now) {
  maybe_spin_down(disk, now);
}

void AdaptiveTpmPolicy::finalize(sim::DiskUnit& disk, TimeMs end) {
  maybe_spin_down(disk, end);
}


sim::PowerPolicy::ReplayFn AdaptiveTpmPolicy::replay_kernel() const {
  return &sim::replay_run<AdaptiveTpmPolicy>;
}

}  // namespace sdpm::policy
