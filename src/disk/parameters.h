// The disk model every simulator, policy and compiler pass consumes.
//
// DiskParameters is an immutable handle on one validated PowerLadder (see
// ladder.h).  It answers the physics questions in ladder terms (levels are
// the serviceable states, slowest first; parks the parked states, deepest
// first) and hides the park/level -> state-index arithmetic.  A handle can
// only be obtained validated: the default constructor and
// ultrastar_36z15() share the paper's ladder, built once; from_ladder()
// and preset() validate the descriptor they are given.  To vary a knob,
// copy ladder(), edit the copy and rebuild with from_ladder().  Where the
// ladder is built, its per-level physics (LevelPhysics) is derived once
// too; copies of the handle share both.
//
// The paper disk is the IBM Ultrastar 36Z15 of Table 1 with the DRPM
// scaling laws from Gurumurthi et al. (ISCA'03); its ladder is built from
// those formulas in ladder.cpp (make_ultrastar_36z15):
//   - rotational latency scales as 1/RPM,
//   - media transfer rate scales linearly with RPM,
//   - spindle power scales as RPM^2.8 above a fixed electronics floor,
//   - RPM transitions cost time proportional to the RPM distance and are
//     billed at the faster level's power (the paper's stated conservative
//     assumption).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "disk/ladder.h"
#include "util/error.h"
#include "util/units.h"

namespace sdpm::disk {

/// The physics of one serviceable level that the replay and the certifier
/// read per request and per energy integration, derived from the ladder
/// once per handle (see DiskParameters::level_physics).
struct LevelPhysics {
  Watts idle_w = 0;           ///< idle_power_at_level
  Watts active_w = 0;         ///< active_power_at_level
  TimeMs rot_latency_ms = 0;  ///< rotational_latency_at_level
  double bytes_per_ms = 0;    ///< transfer_rate_at_level * 1e6 / 1e3
};

class DiskParameters {
 public:
  /// The paper's disk (Table 1).
  DiskParameters();

  /// The paper's disk (Table 1); shares the default-constructed ladder.
  static DiskParameters ultrastar_36z15();
  /// A disk on `ladder`; throws sdpm::Error when the ladder is invalid.
  static DiskParameters from_ladder(PowerLadder ladder);
  /// from_ladder(PowerLadder::preset(name)); see PowerLadder::preset_names.
  static DiskParameters preset(const std::string& preset_name);
  static const std::vector<std::string>& preset_names() {
    return PowerLadder::preset_names();
  }

  /// The validated device descriptor.
  const PowerLadder& ladder() const { return device_->ladder; }

  // ---- parked states -----------------------------------------------------

  /// Number of parked (non-serviceable) states; park 0 is the deepest.
  int park_count() const { return parks_; }
  /// The park a bare spin-down directive targets (the deepest).
  int default_park() const { return 0; }
  const std::string& park_name(int park) const {
    return state(park_index(park)).name;
  }
  /// Resident power while parked in `park`.
  Watts park_power(int park) const {
    return state(park_index(park)).idle_power;
  }
  /// Idleness timer of `park` (< 0 = none; reactive TPM then skips the
  /// park, or parks the deepest one at effective_idleness_threshold()).
  TimeMs park_timer_ms(int park) const {
    return state(park_index(park)).timer_ms;
  }
  /// Entry cost from serviceable `level` into `park`; entry must be
  /// possible (check park_entry_possible for non-default parks).
  bool park_entry_possible(int level, int park) const {
    return edge(level_index(level), park_index(park)).present();
  }
  TimeMs park_entry_time(int level, int park) const {
    return entry_edge(level, park).time_ms;
  }
  Joules park_entry_energy(int level, int park) const {
    return entry_edge(level, park).energy_j;
  }
  /// Descent between parks (deepening while already parked).
  bool park_descent_possible(int from_park, int to_park) const {
    return edge(park_index(from_park), park_index(to_park)).present();
  }
  TimeMs park_descent_time(int from_park, int to_park) const {
    return descent_edge(from_park, to_park).time_ms;
  }
  Joules park_descent_energy(int from_park, int to_park) const {
    return descent_edge(from_park, to_park).energy_j;
  }
  /// Wake cost from `park` back to the top level.
  TimeMs wake_time(int park) const { return wake_edge(park).time_ms; }
  Joules wake_energy(int park) const { return wake_edge(park).energy_j; }

  // ---- serviceable levels ------------------------------------------------

  /// Number of serviceable levels; level 0 is the slowest, the top level
  /// runs at full speed.
  int rpm_level_count() const {
    return static_cast<int>(device_->ladder.states.size()) - parks_;
  }
  /// RPM of level `level`.
  int rpm_of_level(int level) const { return state(level_index(level)).rpm; }
  /// Highest (fastest) level index.
  int max_level() const { return rpm_level_count() - 1; }

  // ---- power -------------------------------------------------------------

  /// Power while spinning idle at `level`.
  Watts idle_power_at_level(int level) const {
    return state(level_index(level)).idle_power;
  }
  /// Power while servicing a request at `level`.
  Watts active_power_at_level(int level) const {
    return state(level_index(level)).active_power;
  }
  /// Power while spun down into the deepest park.
  Watts standby_power() const { return park_power(0); }

  // ---- mechanics ---------------------------------------------------------

  /// Average rotational latency at `level`.
  TimeMs rotational_latency_at_level(int level) const {
    return state(level_index(level)).rot_latency_ms;
  }
  /// Media transfer rate at `level` in MB/s.
  double transfer_rate_at_level(int level) const {
    return state(level_index(level)).transfer_mb_per_s;
  }
  /// Service time of one request at `level`: optional seek + rotational
  /// latency (skipped when `sequential`), plus transfer.
  TimeMs service_time(Bytes request_bytes, int level, bool sequential) const;

  /// The physics of `level`, each field equal bit for bit to its accessor
  /// above.  Not range-checked (a debug assert only): the replay reads it
  /// on its hot path at levels its commands already checked.
  const LevelPhysics& level_physics(int level) const {
    SDPM_ASSERT(level >= 0 && level < rpm_level_count(),
                "RPM level out of range");
    return device_->levels[static_cast<std::size_t>(level)];
  }

  // ---- transitions -------------------------------------------------------

  /// Time and energy to move between two serviceable levels.
  TimeMs rpm_transition_time(int from_level, int to_level) const {
    return shift_edge(from_level, to_level).time_ms;
  }
  Joules rpm_transition_energy(int from_level, int to_level) const {
    return shift_edge(from_level, to_level).energy_j;
  }

  // ---- TPM thresholds ----------------------------------------------------

  /// Minimum idle-period length for which parking in the deepest park
  /// saves energy:
  /// (E_down + E_up - P_park*(T_down + T_up)) / (P_idle - P_park).
  TimeMs break_even_time() const { return break_even_time(0); }
  /// Break-even generalized to any park (entry from and wake back to the
  /// top level).
  TimeMs break_even_time(int park) const;
  /// Effective reactive-TPM idleness threshold (the ladder's override, or
  /// break-even when unset).
  TimeMs effective_idleness_threshold() const {
    return ladder().idleness_threshold >= 0 ? ladder().idleness_threshold
                                            : break_even_time();
  }

  // ---- reactive-controller knobs ----------------------------------------

  int window_size() const { return ladder().window_size; }
  double lower_tolerance() const { return ladder().lower_tolerance; }
  double upper_tolerance() const { return ladder().upper_tolerance; }

 private:
  /// A validated ladder and the level table derived from it.
  struct Device {
    explicit Device(PowerLadder validated);
    PowerLadder ladder;
    std::vector<LevelPhysics> levels;  ///< by level, slowest first
  };

  explicit DiskParameters(std::shared_ptr<const Device> device)
      : device_(std::move(device)), parks_(device_->ladder.park_count()) {}

  /// The paper disk's device, built once for every default handle.
  static const std::shared_ptr<const Device>& paper_device();

  /// Ladder state index of serviceable `level` / of `park` (range-checked).
  int level_index(int level) const {
    SDPM_REQUIRE(level >= 0 && level < rpm_level_count(),
                 "RPM level out of range");
    return parks_ + level;
  }
  int park_index(int park) const {
    SDPM_REQUIRE(park >= 0 && park < parks_, "park index out of range");
    return park;
  }
  const LadderState& state(int index) const {
    return ladder().states[static_cast<std::size_t>(index)];
  }
  /// Edge between two range-checked state indices.
  const LadderEdge& edge(int from_state, int to_state) const {
    return ladder().edges[static_cast<std::size_t>(from_state) *
                              ladder().states.size() +
                          static_cast<std::size_t>(to_state)];
  }
  const LadderEdge& entry_edge(int level, int park) const {
    const LadderEdge& e = edge(level_index(level), park_index(park));
    SDPM_REQUIRE(e.present(), "no entry edge into the requested park");
    return e;
  }
  const LadderEdge& descent_edge(int from_park, int to_park) const {
    const LadderEdge& e = edge(park_index(from_park), park_index(to_park));
    SDPM_REQUIRE(e.present(), "no descent edge between the requested parks");
    return e;
  }
  const LadderEdge& wake_edge(int park) const {
    return edge(park_index(park), ladder().top_state());
  }
  /// The level-to-level edge; a zero-cost edge when the levels are equal.
  const LadderEdge& shift_edge(int from_level, int to_level) const {
    static constexpr LadderEdge kStay{0.0, 0.0};
    const int from = level_index(from_level);
    const int to = level_index(to_level);
    return from == to ? kStay : edge(from, to);
  }

  std::shared_ptr<const Device> device_;  ///< never null
  int parks_;  ///< ladder().park_count(), fixed with the immutable ladder
};

}  // namespace sdpm::disk
