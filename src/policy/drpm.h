// Reactive DRPM (Gurumurthi et al., ISCA'03) window heuristic.
//
// Each disk monitors the average response time of consecutive n-request
// windows (n = DiskParameters::window_size(); the paper uses 30).  At each
// window boundary the controller compares the window's average against the
// previous window's:
//   - if response time degraded by more than the *upper tolerance*, the
//     disk is ramped back to full speed to recover performance;
//   - if the change stayed below the *lower tolerance* (the workload is
//     light), the disk drops one RPM step;
//   - otherwise the speed is held.
// This reproduces the paper's observed dynamics: the controller lowers RPM
// when a disk looks lightly loaded, pays "a slowdown in response times for
// the next n requests", then restores the level — which is exactly why
// reactive DRPM degrades as the stripe size grows (Fig. 6).
#pragma once

#include <unordered_map>

#include "sim/policy.h"
#include "util/stats.h"

namespace sdpm::policy {

class DrpmPolicy final : public sim::PowerPolicy {
 public:
  /// `idle_step_ms`: in addition to the window heuristic, the disk steps
  /// one RPM level down for every `idle_step_ms` of continuous idleness
  /// (the DRPM disk's autonomous idle-time speed reduction).  This is the
  /// mechanism behind paper Fig. 5/6: larger stripes send longer request
  /// runs to one disk and leave the others idle longer, so the reactive
  /// scheme parks them lower — conserving energy but paying response-time
  /// penalties when the run returns.
  explicit DrpmPolicy(TimeMs idle_step_ms = 500.0)
      : idle_step_ms_(idle_step_ms) {}

  void attach(sim::DiskUnit& disk) override;
  void before_service(sim::DiskUnit& disk, TimeMs now) override;
  void after_service(sim::DiskUnit& disk, TimeMs completion,
                     TimeMs response_ms) override;
  void finalize(sim::DiskUnit& disk, TimeMs end) override;

  const char* name() const override { return "DRPM"; }
  ReplayFn replay_kernel() const override;

 private:
  void apply_idle_steps(sim::DiskUnit& disk, TimeMs now) const;

  struct DiskState {
    double window_sum = 0;
    int window_count = 0;
    double prev_mean = -1;  ///< previous window's average response time
  };

  TimeMs idle_step_ms_;
  std::unordered_map<int, DiskState> state_;
};

}  // namespace sdpm::policy
