// Structure-of-arrays hot state for the replay engine.
//
// The per-request replay loop touches a handful of per-disk scalars
// (clock, mode, RPM level, head position, last completion/issue times)
// millions of times per simulated second, while the per-disk statistics
// (energy breakdown, residency, fault counters, busy periods) are only
// read once at report time.  DiskArrayState splits the two: the hot
// scalars live here, packed contiguously and sized to the array's disk
// count, while DiskUnit keeps the cold accounting.  A standalone DiskUnit
// (tests) owns a one-slot DiskArrayState of its own, so the split is
// invisible outside the simulator.
//
// LevelTable caches the per-level physics the hot loop reads (idle/active
// power, rotational latency, transfer rate, park powers, average seek
// time), so a service or an energy integration is a flat array read instead
// of a range-checked ladder lookup.  Every cached value is produced by the
// same DiskParameters accessor the on-demand path uses, so cached and
// uncached replays are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/parameters.h"
#include "disk/power_state.h"
#include "util/units.h"

namespace sdpm::sim {

/// Spindle operating mode (DiskUnit's power-state machine).
enum class DiskMode : std::uint8_t { kSpinning, kStandby, kTransition };

/// Per-ladder-state derived physics, precomputed once per replay: one
/// entry per serviceable level plus the resident power of every park.
class LevelTable {
 public:
  struct Level {
    Watts idle_w = 0;          ///< idle_power_at_level
    Watts active_w = 0;        ///< active_power_at_level
    TimeMs rot_latency_ms = 0; ///< rotational_latency_at_level
    double bytes_per_ms = 0;   ///< transfer_rate_at_level * 1e6 / 1e3
  };

  explicit LevelTable(const disk::DiskParameters& params)
      : seek_ms_(params.ladder().average_seek_time) {
    levels_.resize(static_cast<std::size_t>(params.rpm_level_count()));
    for (int l = 0; l < params.rpm_level_count(); ++l) {
      Level& lv = levels_[static_cast<std::size_t>(l)];
      lv.idle_w = params.idle_power_at_level(l);
      lv.active_w = params.active_power_at_level(l);
      lv.rot_latency_ms = params.rotational_latency_at_level(l);
      // Same expression as DiskParameters::service_time so the cached
      // transfer times match the uncached ones bit for bit.
      lv.bytes_per_ms = params.transfer_rate_at_level(l) * 1'000'000.0 /
                        1'000.0;
    }
    parks_w_.resize(static_cast<std::size_t>(params.park_count()));
    for (int p = 0; p < params.park_count(); ++p) {
      parks_w_[static_cast<std::size_t>(p)] = params.park_power(p);
    }
  }

  const Level& operator[](int level) const {
    return levels_[static_cast<std::size_t>(level)];
  }

  /// Resident power of park `park` (park 0 the deepest).
  Watts park_w(int park) const {
    return parks_w_[static_cast<std::size_t>(park)];
  }

  /// Average seek time (the positioning cost of a non-sequential request).
  TimeMs seek_ms() const { return seek_ms_; }

 private:
  TimeMs seek_ms_;
  std::vector<Level> levels_;
  std::vector<Watts> parks_w_;
};

/// Hot per-disk replay state for an array of `disks` units.
struct DiskArrayState {
  /// Scalars touched on every energy integration / service.
  struct Core {
    TimeMs clock = 0;            ///< energy integrated up to here
    TimeMs last_completion = 0;  ///< start of the current idle period
    BlockNo next_sector = -1;    ///< head position (sequential detection)
    std::int32_t level = 0;      ///< physical RPM level while spinning
    DiskMode mode = DiskMode::kSpinning;
    std::uint8_t park = 0;       ///< resident park while mode == kStandby
  };

  /// Valid only while the slot's mode is kTransition.
  struct Transition {
    TimeMs end = 0;
    Watts power = 0;
    std::int32_t after_level = 0;
    disk::PowerState bucket = disk::PowerState::kRpmShift;
    DiskMode after_mode = DiskMode::kSpinning;
    std::uint8_t after_park = 0;  ///< park entered when after_mode is kStandby
  };

  DiskArrayState(int disks, const disk::DiskParameters& params)
      : core(static_cast<std::size_t>(disks)),
        trans(static_cast<std::size_t>(disks)),
        last_issue(static_cast<std::size_t>(disks), 0.0),
        levels(params) {
    const std::int32_t top = params.max_level();
    for (Core& c : core) c.level = top;
  }

  std::vector<Core> core;
  std::vector<Transition> trans;
  /// Closed-loop prefetch bookkeeping: per-disk last issue time.
  std::vector<TimeMs> last_issue;
  LevelTable levels;
};

}  // namespace sdpm::sim
