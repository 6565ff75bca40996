// Adaptive-threshold TPM (extension).
//
// The paper notes that reactive TPM can choose its idleness threshold "by
// making use of either fixed or adaptive threshold based strategies" (§2)
// but only evaluates the fixed break-even threshold.  This policy
// implements the classic multiplicative-adjustment rule of Douglis et
// al.'s adaptive spin-down work: after each spin-down, if the disk was
// woken again quickly (the gap did not recoup the transition cost) the
// threshold is increased; after a spin-down that paid off, the threshold is
// decreased toward an aggressive floor.  Exposed as an ablation against
// the paper's fixed-threshold TPM.
#pragma once

#include <unordered_map>

#include "sim/policy.h"

namespace sdpm::policy {

/// Adaptive TPM's knobs.  Whatever the ladder's per-park timers, it parks
/// in the default (deepest) park.
struct AdaptiveTpmOptions {
  /// Initial threshold; <0 selects the ladder's idleness threshold (the
  /// break-even time when the ladder sets none), as TpmPolicy's deepest
  /// rung does.
  TimeMs initial_threshold_ms = -1.0;
  /// Threshold bounds (floor keeps the policy from thrashing on bursty
  /// request runs; ceiling keeps it responsive).
  TimeMs min_threshold_ms = 1'000.0;
  TimeMs max_threshold_ms = 120'000.0;
  /// Multiplicative adjustment factor (> 1).
  double adjust = 2.0;
};

class AdaptiveTpmPolicy final : public sim::PowerPolicy {
 public:
  explicit AdaptiveTpmPolicy(AdaptiveTpmOptions options = {})
      : options_(options) {}

  void attach(sim::DiskUnit& disk) override;
  void before_service(sim::DiskUnit& disk, TimeMs now) override;
  void finalize(sim::DiskUnit& disk, TimeMs end) override;

  const char* name() const override { return "ATPM"; }
  ReplayFn replay_kernel() const override;

  /// Current threshold of `disk_id` (for tests/inspection).
  TimeMs threshold_of(int disk_id) const;

  /// Override `disk_id`'s threshold (clamped to the configured bounds).
  /// Used by ResilientPolicy to start a demoted disk at the conservative
  /// ceiling; the adaptive rule relaxes it again if spin-downs pay off.
  void set_threshold(int disk_id, TimeMs threshold_ms);

 private:
  void maybe_spin_down(sim::DiskUnit& disk, TimeMs now);

  AdaptiveTpmOptions options_;
  std::unordered_map<int, TimeMs> threshold_;
};

}  // namespace sdpm::policy
