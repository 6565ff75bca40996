// Generic power-state ladder: one device model for TPM, DRPM, multi-idle
// SCSI power conditions, and NVMe-style autonomous power states.
//
// A PowerLadder is an ordered set of power states plus an explicit
// transition-cost matrix.  States are listed in ascending capability:
// first the *parked* states (not serviceable; deepest/lowest-power first),
// then the *serviceable* levels (slowest first, full speed last).  The
// classic dichotomy the paper simulates is recovered as two degenerate
// instances:
//   - TPM: one park ("standby") + one or more levels; the park's entry and
//     wake edges carry the Table 1 spin-down/up costs.
//   - DRPM: the serviceable levels are the RPM ladder; level<->level edges
//     carry the RPM-shift costs (billed at the faster level's idle power,
//     the paper's conservative assumption).
// Datasheet-real devices compose both: SCSI power-condition timers
// (Idle_B/C, Standby_Y/Z — each a park with its own idleness timer and
// progressively cheaper power / costlier wake) and NVMe power states
// (several serviceable tiers plus parked states with ~ms wake).
//
// A ladder is the whole device model: DiskParameters (parameters.h) is a
// validated handle on one, and the paper's Ultrastar 36Z15 is the preset
// built from the Table 1 / DRPM formulas (make_ultrastar_36z15 in
// ladder.cpp).  Descriptors from files and daemon submits go through
// from_json, which bounds the state count and every narrowed integer before
// it allocates, then validates.
#pragma once

#include <string>
#include <vector>

#include "util/json.h"
#include "util/units.h"

namespace sdpm::disk {

/// One rung of the ladder.
struct LadderState {
  std::string name;
  /// True when the state can service requests (a "level"); false for
  /// parked states the disk must leave before serving.
  bool serviceable = false;
  /// Power while resident and not servicing (parked states: the resident
  /// power; levels: the idle power).
  Watts idle_power = 0;
  /// Power while servicing a request (levels only).
  Watts active_power = 0;
  /// Average rotational latency while servicing (levels only; 0 for
  /// non-rotating media).
  TimeMs rot_latency_ms = 0;
  /// Media transfer rate while servicing (levels only; must be > 0).
  double transfer_mb_per_s = 0;
  /// Nominal spindle speed (informational; 0 for non-rotating media).
  int rpm = 0;
  /// Idleness timer: a reactive policy enters this state once the disk has
  /// been idle this long.  < 0 means no timer (the deepest park then falls
  /// back to the break-even threshold).  Parked states only.
  TimeMs timer_ms = -1;

  friend bool operator==(const LadderState&, const LadderState&) = default;
};

/// One directed transition edge.  `time_ms < 0` marks an absent edge.
struct LadderEdge {
  TimeMs time_ms = -1;
  Joules energy_j = 0;

  bool present() const { return time_ms >= 0; }

  friend bool operator==(const LadderEdge&, const LadderEdge&) = default;
};

struct PowerLadder {
  inline static constexpr int kSchemaVersion = 1;
  /// Largest state count a descriptor may declare (the n x n edge matrix
  /// grows quadratically).
  inline static constexpr int kMaxStates = 64;

  std::string name;  ///< preset id / descriptor id
  std::string model;
  std::string interface;
  Bytes capacity = 0;
  TimeMs average_seek_time = 0;

  /// Fixed electronics power, drawn in every serviceable state (the floor
  /// of the Table 1 decomposition).  Deliberately independent of any
  /// park's power: a parked device may drop parts of the electronics, so
  /// the two are no longer coupled by convention.
  Watts electronics_power = 0;
  /// Spindle power at the top level for RPM-scaling ladders; < 0 when the
  /// ladder does not follow the RPM^e scaling law.  When set, the validator
  /// enforces the Table 1 decomposition top.idle = electronics + spindle.
  Watts spindle_power_at_max = -1;

  // Reactive-controller knobs (DRPM window heuristic).
  int window_size = 30;
  double lower_tolerance = 0.05;
  double upper_tolerance = 0.15;
  /// Reactive idleness threshold override; < 0 = per-state timers, with
  /// break-even as the deepest park's fallback.
  TimeMs idleness_threshold = -1;

  /// Ascending capability: parks (deepest first), then levels (slowest
  /// first).  The last state is the full-speed level ("top").
  std::vector<LadderState> states;
  /// Row-major states.size() x states.size() transition matrix.
  std::vector<LadderEdge> edges;

  friend bool operator==(const PowerLadder&, const PowerLadder&) = default;

  // ---- shape -------------------------------------------------------------

  int state_count() const { return static_cast<int>(states.size()); }
  /// Parked (non-serviceable) states; park p is state index p, p = 0 the
  /// deepest.
  int park_count() const;
  /// Serviceable levels; level l is state index park_count() + l.
  int level_count() const { return state_count() - park_count(); }
  int park_state(int park) const { return park; }
  int level_state(int level) const { return park_count() + level; }
  int top_state() const { return state_count() - 1; }

  const LadderEdge& edge(int from_state, int to_state) const;
  LadderEdge& edge_ref(int from_state, int to_state);
  /// Index of the named state; -1 when absent.
  int state_index(const std::string& state_name) const;

  // ---- validation / serialization ---------------------------------------

  /// Validate the descriptor; throws sdpm::Error with a message naming the
  /// offending state or edge and the violated rule.
  void validate() const;

  /// JSON document (sorted keys, absent edges omitted); round-trips
  /// through from_json bit for bit.
  Json to_json() const;
  /// Parse and validate a descriptor.  The state count and the integer
  /// fields are range-checked before anything is allocated or narrowed;
  /// every error names the offending field.
  static PowerLadder from_json(const Json& json);

  // ---- shipped presets ---------------------------------------------------

  /// Preset names, in presentation order:
  ///   ultrastar_36z15  the paper's disk: Table 1 plus the DRPM scaling
  ///                    laws over eleven RPM levels and one standby park
  ///   scsi_multi_idle  enterprise SCSI power conditions: Idle_B/Idle_C
  ///                    head-unload parks + Standby_Y/Standby_Z, each with
  ///                    its own timer and wake cost
  ///   nvme_tiered      NVMe-style: three serviceable tiers (PS0..PS2)
  ///                    plus two autonomous parks (PS3/PS4) with ~ms wake
  static const std::vector<std::string>& preset_names();
  static bool is_preset(const std::string& preset);
  /// The named preset (validated); throws sdpm::Error for unknown names.
  static PowerLadder preset(const std::string& preset);
};

}  // namespace sdpm::disk
