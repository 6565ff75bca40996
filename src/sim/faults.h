// Deterministic fault injection for the disk subsystem.
//
// The paper's evaluation assumes a perfectly behaved array: every power
// directive lands and every spin-up succeeds, so the only error source is
// gap misprediction (Table 3).  Real arrays also see failed spin-ups,
// transient media errors with bad-sector remapping, service-latency jitter,
// and commands that silently never reach the device.  FaultModel injects
// exactly those behaviors into DiskUnit, drawing from per-disk SplitMix64
// streams keyed by an explicit seed so a faulty run is bit-for-bit
// reproducible.  The default FaultConfig (all probabilities zero) leaves
// every existing result unchanged: the simulator only consults the model
// when a fault class is enabled, and consumes no random draws otherwise.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace sdpm::sim {

/// Per-run fault-injection configuration.  Default-constructed = no faults;
/// all probabilities are per-event and drawn independently per disk.
struct FaultConfig {
  /// Probability that one spin-up attempt (commanded pre-activation or
  /// demand wake) fails.  A failed attempt costs `spin_up_attempt_ms`
  /// (clamped to the disk's spin-up time when unset) billed at spin-up
  /// power, leaves the disk in standby, and is retried after a capped
  /// exponential backoff.  The attempt after `max_spin_up_retries` failures
  /// always succeeds (the controller's recovery path), so a simulation can
  /// never wedge.
  double spin_up_failure_prob = 0.0;
  int max_spin_up_retries = 4;
  /// Time a failed attempt consumes before being declared failed; <0 means
  /// the disk's full spin-up time.
  TimeMs spin_up_attempt_ms = -1.0;
  /// Backoff before retry k (0-based): base * factor^k, capped.
  TimeMs retry_backoff_base_ms = 100.0;
  double retry_backoff_factor = 2.0;
  TimeMs retry_backoff_cap_ms = 5'000.0;

  /// Probability that one request hits a transient media error.  The
  /// faulty sector is remapped to the spare area (once) and the transfer is
  /// retried from the remapped location: the request pays one extra
  /// non-sequential service at the current RPM level.  Later requests that
  /// touch an already-remapped sector pay a reposition penalty (seek +
  /// rotational latency) to reach the spare area.
  double media_error_prob = 0.0;

  /// Half-width of the multiplicative service-time jitter: each service is
  /// scaled by a uniform factor in [1 - jitter, 1 + jitter].  Must be < 1.
  double service_jitter = 0.0;

  /// Probability that a park_to / set_rpm_level command silently does not
  /// take effect (lost on the way to the device).  Demand spin-ups are not
  /// directives and never drop.
  double dropped_directive_prob = 0.0;

  /// Seed for the per-disk fault streams.
  std::uint64_t seed = 0x5d12fa071f5ULL;

  /// The no-fault configuration (identical to a default-constructed one).
  static FaultConfig none() { return FaultConfig{}; }

  /// True when any fault class can fire.
  bool enabled() const {
    return spin_up_failure_prob > 0 || media_error_prob > 0 ||
           service_jitter > 0 || dropped_directive_prob > 0;
  }

  /// Throws sdpm::Error on out-of-range parameters.
  void validate() const;
};

/// Per-run fault state: one RNG stream and one bad-sector remap table per
/// disk.  Draw order within a disk is fixed by the simulation's per-disk
/// event order, so identical (trace, policy, config) runs produce identical
/// fault sequences regardless of how disks interleave globally.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  /// Outcome of the media-error check for one request.
  struct MediaOutcome {
    bool error = false;      ///< the transfer hit a transient media error
    bool new_remap = false;  ///< a spare-area remap entry was created
  };

  /// Draws for one disk.  Each consumes randomness only when its fault
  /// class is enabled, so e.g. enabling jitter does not perturb the media
  /// error sequence.
  bool spin_up_fails(int disk);
  bool drops_directive(int disk);
  MediaOutcome media_check(int disk, BlockNo sector);
  double service_jitter_factor(int disk);

  /// True when `sector` of `disk` has been remapped to the spare area.
  bool is_remapped(int disk, BlockNo sector) const;

  /// Backoff delay before retry `attempt` (0-based), capped.
  TimeMs backoff_ms(int attempt) const;

  /// Remap-table size of `disk` (== remapped_sectors of that disk).
  std::int64_t remapped_count(int disk) const;

 private:
  struct DiskState {
    SplitMix64 rng;
    std::unordered_map<BlockNo, BlockNo> remap;  ///< bad sector -> spare
    explicit DiskState(std::uint64_t seed) : rng(seed) {}
  };

  DiskState& state(int disk);

  FaultConfig config_;
  std::vector<DiskState> disks_;
};

}  // namespace sdpm::sim
