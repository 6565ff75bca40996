// Per-disk simulation unit: power-state machine + service model + energy
// integration.
//
// A DiskUnit is driven by timestamped power commands (spin_down / spin_up /
// set_rpm_level) and service calls.  Times must be non-decreasing per disk;
// the unit lazily integrates energy from its internal clock to each new
// timestamp, so a policy may issue a command "in the past" relative to the
// global simulation clock as long as it is not before the disk's own last
// event — exactly what a reactive timeout policy needs (the spin-down
// conceptually happened during an idle gap that is only examined when the
// next request arrives).
//
// Commands issued while a transition is in progress take effect when the
// transition settles (a physical spindle cannot abort a speed change
// mid-flight in this model).
//
// Hot/cold split: the scalars the replay loop touches per request (clock,
// mode, level, head position, completion time) live in a DiskArrayState
// slot (disk_state.h) shared by every disk of a simulated array; the unit
// itself keeps only the cold accounting (energy breakdown, residency,
// busy periods, fault counters).  A standalone unit owns a one-slot state,
// so direct construction behaves exactly as before.  The hot methods
// (advance_to / accumulate / the serve fast path) are defined inline here
// so the replay engine compiles them into its loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "disk/parameters.h"
#include "disk/power_state.h"
#include "ir/nest.h"
#include "layout/striping.h"
#include "sim/disk_state.h"
#include "sim/faults.h"
#include "util/error.h"
#include "util/units.h"

namespace sdpm::obs {
class EventTracer;
}

namespace sdpm::sim {

/// One serviced request interval (for oracle post-processing and
/// utilization statistics).
struct BusyPeriod {
  TimeMs start = 0;       ///< service start (after any wake-up wait)
  TimeMs completion = 0;  ///< service end
};

class DiskUnit {
 public:
  /// Standalone unit owning its own one-slot hot state.  `faults`
  /// (optional, not owned) injects spin-up failures, media errors, jitter
  /// and dropped directives; nullptr keeps the unit's behavior exactly
  /// fault-free.
  DiskUnit(const disk::DiskParameters& params, int id,
           FaultModel* faults = nullptr);

  /// Array member: hot scalars live in `state` slot `slot` (shared with
  /// the replay engine).  `state` must outlive the unit and have been
  /// built from the same `params`.
  DiskUnit(DiskArrayState& state, int slot,
           const disk::DiskParameters& params, int id,
           FaultModel* faults = nullptr);

  DiskUnit(DiskUnit&&) = default;
  DiskUnit& operator=(DiskUnit&&) = delete;

  int id() const { return id_; }
  const disk::DiskParameters& params() const { return *params_; }

  /// Attach the observability tracer (nullptr = untraced, the default).
  /// The unit then emits power-state segments, directive outcomes and
  /// fault events as it integrates — observation only, the simulated
  /// behavior is bit-identical either way.  The simulator resolves the
  /// tracer once per run; each emission site costs one null-pointer test.
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Record a BusyPeriod per serviced request.  On by default for
  /// standalone units (tests drive them directly); the simulator enables
  /// it only when SimOptions::capture_busy_periods asks for oracle or
  /// profile post-processing — the vector is O(requests).
  void set_capture_busy(bool capture) { capture_busy_ = capture; }

  // ---- power commands ----------------------------------------------------

  /// Begin spinning down at `t` into the deepest park.  No-op when already
  /// in standby.  A transition in progress completes first.  Under fault
  /// injection the command may be silently dropped.
  void spin_down(TimeMs t);

  /// Begin parking into `park` at `t` (ladder-backed disks; park 0 is the
  /// deepest, so spin_down(t) == park_to(t, default park)).  No-op when the
  /// disk is already at-or-below `park`; deepening from a shallower park
  /// follows the ladder's park->park descent edge, and is a no-op when the
  /// ladder has none.  Under fault injection the command may be dropped.
  void park_to(TimeMs t, int park);

  /// Begin spinning up at `t` (standby -> active at full RPM).  No-op when
  /// the disk is spinning.  A spin-down in progress completes first.
  void spin_up(TimeMs t);

  /// Begin an RPM transition towards `level` at `t`.  No-op when already at
  /// `level`.  Must not be called on a standby disk.
  void set_rpm_level(TimeMs t, int level);

  // ---- service -----------------------------------------------------------

  struct ServeResult {
    TimeMs start = 0;       ///< when service began (after any waits)
    TimeMs completion = 0;  ///< when the request finished
    bool demand_spin_up = false;     ///< had to wake a standby disk
    bool waited_transition = false;  ///< waited on an in-flight transition
  };

  /// Service a request arriving at `arrival`: waits out any in-flight
  /// transition, wakes the disk if it is in standby (demand spin-up), then
  /// transfers `size_bytes` starting at `sector` at the current RPM level.
  ServeResult serve(TimeMs arrival, BlockNo sector, Bytes size_bytes,
                    ir::AccessKind kind = ir::AccessKind::kRead);

  /// Integrate energy up to the end of simulation.
  void finish(TimeMs end);

  // ---- introspection -----------------------------------------------------

  /// RPM level the disk is at (or transitioning toward).
  int target_level() const;

  /// True when in standby or spinning down toward it.
  bool heading_to_standby() const;

  /// Park the disk is resident in (or transitioning toward); -1 while
  /// serviceable or heading back to a level.
  int current_park() const;

  /// The unit's internal clock: the last time up to which energy has been
  /// integrated.
  TimeMs clock() const { return core().clock; }

  /// Completion time of the last serviced request (start of the current
  /// idle period); 0 if never serviced.
  TimeMs last_completion() const { return core().last_completion; }

  const disk::EnergyBreakdown& breakdown() const { return breakdown_; }
  const std::vector<BusyPeriod>& busy_periods() const { return busy_; }

  /// Time spent spinning (idle or active) at each RPM level, indexed by
  /// level; the DRPM analogue of the active/idle/standby buckets.
  const std::vector<TimeMs>& level_residency_ms() const {
    return level_residency_;
  }

  std::int64_t services() const { return services_; }
  std::int64_t demand_spin_ups() const { return demand_spin_ups_; }
  std::int64_t rpm_transitions() const { return rpm_transitions_; }
  std::int64_t commanded_spin_downs() const { return spin_downs_; }

  // ---- fault outcomes (all zero when no FaultModel is attached) ----------

  /// Failed spin-up attempts (each paid attempt time + energy + backoff).
  std::int64_t spin_up_retries() const { return spin_up_retries_; }
  /// Transient media errors hit while servicing requests.
  std::int64_t media_errors() const { return media_errors_; }
  /// Sectors remapped to the spare area by this unit's media errors.
  std::int64_t remapped_sectors() const { return remapped_sectors_; }
  /// spin_down / set_rpm_level commands that silently did not take effect.
  std::int64_t dropped_directives() const { return dropped_directives_; }

 private:
  static constexpr TimeMs kTimeEps = 1e-9;

  DiskArrayState::Core& core() { return state_->core[slot_]; }
  const DiskArrayState::Core& core() const { return state_->core[slot_]; }
  DiskArrayState::Transition& trans() { return state_->trans[slot_]; }
  const DiskArrayState::Transition& trans() const {
    return state_->trans[slot_];
  }

  /// Integrate energy from the slot clock to `t`, resolving a transition
  /// that completes in between.
  void advance_to(TimeMs t) {
    DiskArrayState::Core& c = core();
    SDPM_ASSERT(t >= c.clock - kTimeEps,
                "disk commands must be time-ordered");
    if (t <= c.clock) return;
    if (c.mode == DiskMode::kTransition && trans().end <= t) {
      const DiskArrayState::Transition tr = trans();
      accumulate(tr.end - c.clock);
      c.clock = tr.end;
      c.mode = tr.after_mode;
      c.level = tr.after_level;
      c.park = tr.after_park;
    }
    if (t > c.clock) {
      accumulate(t - c.clock);
      c.clock = t;
    }
  }

  /// Account `dt` of time in the *current* mode ending at clock + dt.
  void accumulate(TimeMs dt) {
    if (dt <= 0) return;
    DiskArrayState::Core& c = core();
    disk::PowerState bucket = disk::PowerState::kIdle;
    Joules energy = 0;
    switch (c.mode) {
      case DiskMode::kSpinning:
        bucket = disk::PowerState::kIdle;
        energy = joules_from_watt_ms(state_->levels[c.level].idle_w, dt);
        level_residency_[static_cast<std::size_t>(c.level)] += dt;
        break;
      case DiskMode::kStandby:
        bucket = disk::PowerState::kStandby;
        energy = joules_from_watt_ms(state_->levels.park_w(c.park), dt);
        break;
      case DiskMode::kTransition:
        bucket = trans().bucket;
        energy = joules_from_watt_ms(trans().power, dt);
        break;
    }
    breakdown_.add(bucket, dt, energy);
    if (tracer_ != nullptr) emit_state_segment(bucket, dt, energy);
  }

  /// Advance through any in-flight transition; afterwards the mode is
  /// kSpinning or kStandby and the slot clock >= previous transition end.
  void settle() {
    if (core().mode == DiskMode::kTransition) advance_to(trans().end);
    SDPM_ASSERT(core().mode != DiskMode::kTransition,
                "settle left a transition open");
  }

  /// Start a transition at the slot clock (mode must be settled).
  void begin_transition(disk::PowerState bucket, TimeMs duration,
                        Joules energy, DiskMode after, int level_after,
                        int park_after = 0);

  /// Start the standby -> spinning transition at the slot clock (mode
  /// kStandby, settled), burning through any injected failed attempts
  /// (attempt time + capped exponential backoff each) before the final,
  /// successful spin-up is left in flight.
  void begin_spin_up();

  /// Rare serve() preamble: wait out an in-flight transition and/or wake a
  /// standby disk.  Out of line so the inlined fast path stays small.
  void serve_wake(ServeResult& result);

  /// Fault-model detours on the nominal service time (remap seek, media
  /// retry, jitter).  Only called when a FaultModel is attached.
  TimeMs faulted_service(BlockNo sector, Bytes size_bytes, TimeMs service);

  // Cold tracer emissions (observation only; never on the untraced path).
  void emit_state_segment(disk::PowerState bucket, TimeMs dt, Joules energy);
  void emit_service_segment(TimeMs t0, TimeMs t1, Joules energy, TimeMs dt);

  const disk::DiskParameters* params_;
  int id_;
  FaultModel* faults_;
  obs::EventTracer* tracer_ = nullptr;

  DiskArrayState* state_;
  std::size_t slot_;
  std::unique_ptr<DiskArrayState> owned_;  ///< standalone units only

  bool capture_busy_ = true;

  disk::EnergyBreakdown breakdown_;
  std::vector<BusyPeriod> busy_;
  std::vector<TimeMs> level_residency_;
  std::int64_t services_ = 0;
  std::int64_t demand_spin_ups_ = 0;
  std::int64_t rpm_transitions_ = 0;
  std::int64_t spin_downs_ = 0;
  std::int64_t spin_up_retries_ = 0;
  std::int64_t media_errors_ = 0;
  std::int64_t remapped_sectors_ = 0;
  std::int64_t dropped_directives_ = 0;
};

inline DiskUnit::ServeResult DiskUnit::serve(TimeMs arrival, BlockNo sector,
                                             Bytes size_bytes,
                                             ir::AccessKind kind) {
  (void)kind;  // reads and writes share the service model
  ServeResult result;
  DiskArrayState::Core& c = core();
  advance_to(std::max(arrival, c.clock));
  if (c.mode != DiskMode::kSpinning) serve_wake(result);
  SDPM_ASSERT(c.mode == DiskMode::kSpinning, "disk must spin to serve");

  const bool sequential = sector == c.next_sector;
  const LevelTable::Level& lv = state_->levels[c.level];
  // Same arithmetic as DiskParameters::service_time over the cached level
  // physics: optional positioning (skipped when sequential) + transfer.
  const TimeMs transfer = static_cast<double>(size_bytes) / lv.bytes_per_ms;
  TimeMs service =
      sequential ? transfer
                 : state_->levels.seek_ms() + lv.rot_latency_ms + transfer;
  if (faults_ != nullptr) {
    service = faulted_service(sector, size_bytes, service);
  }
  result.start = c.clock;
  result.completion = c.clock + service;
  const Joules active_j = joules_from_watt_ms(lv.active_w, service);
  breakdown_.add(disk::PowerState::kActive, service, active_j);
  if (tracer_ != nullptr) {
    emit_service_segment(result.start, result.completion, active_j, service);
  }
  level_residency_[static_cast<std::size_t>(c.level)] += service;
  c.clock = result.completion;
  c.last_completion = c.clock;
  c.next_sector = sector + (size_bytes + layout::kSectorBytes - 1) /
                               layout::kSectorBytes;
  if (capture_busy_) {
    busy_.push_back(BusyPeriod{result.start, result.completion});
  }
  ++services_;
  return result;
}

}  // namespace sdpm::sim
