// Per-disk simulation unit: power-state machine + service model + energy
// integration.
//
// A DiskUnit is driven by timestamped power commands (park_to / spin_up /
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
// The unit owns its whole state (clock, mode, level, park, head position,
// in-flight transition) and accumulates its outcome in a DiskReport.  Per
// request it reads the device's level table (DiskParameters::level_physics)
// and seek time.  The hot methods (advance_to / accumulate / the serve fast
// path) are defined inline here so the replay engine compiles them into
// its loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "disk/parameters.h"
#include "disk/power_state.h"
#include "ir/nest.h"
#include "layout/striping.h"
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

/// One disk's accounting: what a DiskUnit accumulates as it runs and what
/// the replay reports per disk.
struct DiskReport {
  disk::EnergyBreakdown breakdown;
  /// Time spent spinning (idle or active) at each RPM level, indexed by
  /// level; the DRPM analogue of the active/idle/standby buckets.
  std::vector<TimeMs> level_residency_ms;
  std::int64_t services = 0;
  std::int64_t demand_spin_ups = 0;
  std::int64_t rpm_transitions = 0;
  /// Park commands that took effect (spin-down directives included).
  std::int64_t spin_downs = 0;
  // Fault outcomes (all zero without fault injection).
  /// Failed spin-up attempts (each paid attempt time + energy + backoff).
  std::int64_t spin_up_retries = 0;
  /// Transient media errors hit while servicing requests.
  std::int64_t media_errors = 0;
  /// Sectors remapped to the spare area by this disk's media errors.
  std::int64_t remapped_sectors = 0;
  /// park_to / set_rpm_level commands that silently did not take effect.
  std::int64_t dropped_directives = 0;
  /// One entry per serviced request while busy capture is on.
  std::vector<BusyPeriod> busy_periods;
};

/// Spindle operating mode (DiskUnit's power-state machine).
enum class DiskMode : std::uint8_t { kSpinning, kStandby, kTransition };

class DiskUnit {
 public:
  /// A disk of model `params` (not owned; must outlive the unit), spinning
  /// idle at its top level at time 0.  `faults` (optional, not owned)
  /// injects spin-up failures, media errors, jitter and dropped directives;
  /// nullptr keeps the unit's behavior exactly fault-free.
  DiskUnit(const disk::DiskParameters& params, int id,
           FaultModel* faults = nullptr);

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

  /// Begin parking into `park` at `t` (park 0 is the deepest; a spin-down
  /// directive targets params().default_park()).  No-op when the disk is
  /// already at-or-below `park`; deepening from a shallower park follows
  /// the ladder's park->park descent edge, and is a no-op when the ladder
  /// has none.  A transition in progress completes first.  Under fault
  /// injection the command may be silently dropped.
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

  /// Park the disk is resident in (or transitioning toward); -1 while
  /// serviceable or heading back to a level.
  int current_park() const;

  /// The unit's internal clock: the last time up to which energy has been
  /// integrated.
  TimeMs clock() const { return clock_; }

  /// Completion time of the last serviced request (start of the current
  /// idle period); 0 if never serviced.
  TimeMs last_completion() const { return last_completion_; }

  /// The accounting so far (energy up to clock()).  The rvalue overload
  /// hands it over without a copy once the unit is done.
  const DiskReport& report() const& { return report_; }
  DiskReport report() && { return std::move(report_); }

 private:
  static constexpr TimeMs kTimeEps = 1e-9;

  /// Integrate energy from the clock to `t`, resolving a transition that
  /// completes in between.
  void advance_to(TimeMs t) {
    SDPM_ASSERT(t >= clock_ - kTimeEps, "disk commands must be time-ordered");
    if (t <= clock_) return;
    if (mode_ == DiskMode::kTransition && trans_.end <= t) {
      accumulate(trans_.end - clock_);
      clock_ = trans_.end;
      mode_ = trans_.after_mode;
      level_ = trans_.after_level;
      park_ = trans_.after_park;
    }
    if (t > clock_) {
      accumulate(t - clock_);
      clock_ = t;
    }
  }

  /// Account `dt` of time in the *current* mode ending at clock + dt.
  void accumulate(TimeMs dt) {
    if (dt <= 0) return;
    disk::PowerState bucket = disk::PowerState::kIdle;
    Joules energy = 0;
    switch (mode_) {
      case DiskMode::kSpinning:
        bucket = disk::PowerState::kIdle;
        energy = joules_from_watt_ms(params_->level_physics(level_).idle_w, dt);
        report_.level_residency_ms[static_cast<std::size_t>(level_)] += dt;
        break;
      case DiskMode::kStandby:
        bucket = disk::PowerState::kStandby;
        energy = joules_from_watt_ms(params_->park_power(park_), dt);
        break;
      case DiskMode::kTransition:
        bucket = trans_.bucket;
        energy = joules_from_watt_ms(trans_.power, dt);
        break;
    }
    report_.breakdown.add(bucket, dt, energy);
    if (tracer_ != nullptr) emit_state_segment(bucket, dt, energy);
  }

  /// Advance through any in-flight transition; afterwards the mode is
  /// kSpinning or kStandby and the clock >= previous transition end.
  void settle() {
    if (mode_ == DiskMode::kTransition) advance_to(trans_.end);
    SDPM_ASSERT(mode_ != DiskMode::kTransition,
                "settle left a transition open");
  }

  /// Start a transition at the clock (mode must be settled).
  void begin_transition(disk::PowerState bucket, TimeMs duration,
                        Joules energy, DiskMode after, int level_after,
                        int park_after = 0);

  /// Start the standby -> spinning transition at the clock (mode
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

  /// The in-flight transition; valid only while mode_ is kTransition.
  struct Transition {
    TimeMs end = 0;
    Watts power = 0;
    int after_level = 0;
    int after_park = 0;  ///< park entered when after_mode is kStandby
    disk::PowerState bucket = disk::PowerState::kRpmShift;
    DiskMode after_mode = DiskMode::kSpinning;
  };

  const disk::DiskParameters* params_;
  int id_;
  FaultModel* faults_;
  obs::EventTracer* tracer_ = nullptr;
  bool capture_busy_ = true;

  TimeMs clock_ = 0;            ///< energy integrated up to here
  TimeMs last_completion_ = 0;  ///< start of the current idle period
  BlockNo next_sector_ = -1;    ///< head position (sequential detection)
  int level_;                   ///< physical RPM level while spinning
  int park_ = 0;                ///< resident park while mode_ is kStandby
  DiskMode mode_ = DiskMode::kSpinning;
  Transition trans_;

  DiskReport report_;
};

inline DiskUnit::ServeResult DiskUnit::serve(TimeMs arrival, BlockNo sector,
                                             Bytes size_bytes,
                                             ir::AccessKind kind) {
  (void)kind;  // reads and writes share the service model
  ServeResult result;
  advance_to(std::max(arrival, clock_));
  if (mode_ != DiskMode::kSpinning) serve_wake(result);
  SDPM_ASSERT(mode_ == DiskMode::kSpinning, "disk must spin to serve");

  const bool sequential = sector == next_sector_;
  const disk::LevelPhysics& lv = params_->level_physics(level_);
  // DiskParameters::service_time's arithmetic: optional positioning
  // (skipped when sequential) + transfer.
  const TimeMs transfer = static_cast<double>(size_bytes) / lv.bytes_per_ms;
  TimeMs service =
      sequential ? transfer
                 : params_->ladder().average_seek_time + lv.rot_latency_ms +
                       transfer;
  if (faults_ != nullptr) {
    service = faulted_service(sector, size_bytes, service);
  }
  result.start = clock_;
  result.completion = clock_ + service;
  const Joules active_j = joules_from_watt_ms(lv.active_w, service);
  report_.breakdown.add(disk::PowerState::kActive, service, active_j);
  if (tracer_ != nullptr) {
    emit_service_segment(result.start, result.completion, active_j, service);
  }
  report_.level_residency_ms[static_cast<std::size_t>(level_)] += service;
  clock_ = result.completion;
  last_completion_ = clock_;
  next_sector_ = sector + (size_bytes + layout::kSectorBytes - 1) /
                              layout::kSectorBytes;
  if (capture_busy_) {
    report_.busy_periods.push_back(BusyPeriod{result.start, result.completion});
  }
  ++report_.services;
  return result;
}

}  // namespace sdpm::sim
