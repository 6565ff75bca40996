#include "sim/disk_unit.h"

#include <algorithm>

#include "disk/ladder.h"
#include "obs/tracer.h"

namespace sdpm::sim {

namespace {

/// Ladder-state name for tracing; none while in transition (the bucket
/// names the transition).
const char* state_label(const disk::DiskParameters& params, DiskMode mode,
                        int level, int park) {
  if (mode == DiskMode::kTransition) return nullptr;
  const disk::PowerLadder& ladder = params.ladder();
  const int state = mode == DiskMode::kStandby ? ladder.park_state(park)
                                               : ladder.level_state(level);
  return ladder.states[static_cast<std::size_t>(state)].name.c_str();
}

}  // namespace

DiskUnit::DiskUnit(const disk::DiskParameters& params, int id,
                   FaultModel* faults)
    : params_(&params), id_(id), faults_(faults), level_(params.max_level()) {
  report_.level_residency_ms.assign(
      static_cast<std::size_t>(params.rpm_level_count()), 0.0);
}

void DiskUnit::emit_state_segment(disk::PowerState bucket, TimeMs dt,
                                  Joules energy) {
  obs::Event ev;
  ev.kind = obs::EventKind::kStateSegment;
  ev.disk = id_;
  ev.t0 = clock_;
  ev.t1 = clock_ + dt;
  ev.state = bucket;
  ev.level = level_;
  ev.energy_j = energy;
  ev.value = dt;
  ev.label = state_label(*params_, mode_, level_, park_);
  tracer_->emit(ev);
}

void DiskUnit::emit_service_segment(TimeMs t0, TimeMs t1, Joules energy,
                                    TimeMs dt) {
  obs::Event ev;
  ev.kind = obs::EventKind::kStateSegment;
  ev.disk = id_;
  ev.t0 = t0;
  ev.t1 = t1;
  ev.state = disk::PowerState::kActive;
  ev.level = level_;
  ev.energy_j = energy;
  ev.value = dt;
  ev.label = state_label(*params_, DiskMode::kSpinning, level_, park_);
  tracer_->emit(ev);
}

void DiskUnit::begin_transition(disk::PowerState bucket, TimeMs duration,
                                Joules energy, DiskMode after,
                                int level_after, int park_after) {
  SDPM_ASSERT(mode_ != DiskMode::kTransition, "transition already in flight");
  if (duration <= 0) {
    mode_ = after;
    level_ = level_after;
    park_ = park_after;
    report_.breakdown.add(bucket, 0, energy);
    if (tracer_ != nullptr && energy > 0) {
      // Instant transitions still pay their energy; report a zero-width
      // segment so timeline consumers reconcile exactly with the breakdown.
      obs::Event ev;
      ev.kind = obs::EventKind::kStateSegment;
      ev.disk = id_;
      ev.t0 = clock_;
      ev.t1 = clock_;
      ev.state = bucket;
      ev.level = level_after;
      ev.energy_j = energy;
      tracer_->emit(ev);
    }
    return;
  }
  mode_ = DiskMode::kTransition;
  trans_.end = clock_ + duration;
  trans_.power = energy / seconds_from_ms(duration);
  trans_.bucket = bucket;
  trans_.after_mode = after;
  trans_.after_level = level_after;
  trans_.after_park = park_after;
}

int DiskUnit::target_level() const {
  if (mode_ == DiskMode::kTransition &&
      trans_.after_mode == DiskMode::kSpinning) {
    return trans_.after_level;
  }
  return level_;
}

int DiskUnit::current_park() const {
  if (mode_ == DiskMode::kStandby) return park_;
  if (mode_ == DiskMode::kTransition &&
      trans_.after_mode == DiskMode::kStandby) {
    return trans_.after_park;
  }
  return -1;
}

void DiskUnit::begin_spin_up() {
  SDPM_ASSERT(mode_ == DiskMode::kStandby, "spin-up must start from standby");
  // Wake cost depends on the resident park (the paper disk: its standby
  // park, whose wake edge carries the Table 1 spin-up figures).
  const int park = park_;
  const TimeMs up_time = params_->wake_time(park);
  const Joules up_energy = params_->wake_energy(park);
  if (faults_ != nullptr) {
    const FaultConfig& fc = faults_->config();
    TimeMs attempt_ms =
        fc.spin_up_attempt_ms >= 0 ? fc.spin_up_attempt_ms : up_time;
    attempt_ms = std::min(attempt_ms, up_time);
    const Joules attempt_j =
        up_energy * (up_time > 0 ? attempt_ms / up_time : 1.0);
    int attempt = 0;
    // The attempt after the retry cap always succeeds (controller
    // recovery), so service can never wedge behind a permanently dead
    // spindle.
    while (attempt < fc.max_spin_up_retries && faults_->spin_up_fails(id_)) {
      ++report_.spin_up_retries;
      const TimeMs backoff = faults_->backoff_ms(attempt);
      if (tracer_ != nullptr) {
        obs::Event ev;
        ev.kind = obs::EventKind::kSpinUpRetry;
        ev.disk = id_;
        ev.t0 = clock_;
        ev.t1 = clock_;
        ev.value = backoff;
        tracer_->emit(ev);
      }
      begin_transition(disk::PowerState::kSpinningUp, attempt_ms, attempt_j,
                       DiskMode::kStandby, level_, park);
      settle();
      advance_to(clock_ + backoff);
      ++attempt;
    }
  }
  begin_transition(disk::PowerState::kSpinningUp, up_time, up_energy,
                   DiskMode::kSpinning, params_->max_level());
}

void DiskUnit::serve_wake(ServeResult& result) {
  if (mode_ == DiskMode::kTransition) {
    result.waited_transition = trans_.after_mode == DiskMode::kSpinning;
    settle();
  }
  if (mode_ == DiskMode::kStandby) {
    result.demand_spin_up = true;
    ++report_.demand_spin_ups;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kDemandSpinUp;
      ev.disk = id_;
      ev.t0 = clock_;
      ev.t1 = clock_;
      tracer_->emit(ev);
    }
    begin_spin_up();
    settle();
  }
}

TimeMs DiskUnit::faulted_service(BlockNo sector, Bytes size_bytes,
                                 TimeMs service) {
  const disk::LevelPhysics& lv = params_->level_physics(level_);
  const TimeMs seek_ms = params_->ladder().average_seek_time;
  if (faults_->is_remapped(id_, sector)) {
    // The head must detour to the spare area: one reposition (seek +
    // rotational latency) on top of the nominal transfer.
    service += seek_ms + lv.rot_latency_ms;
  }
  const FaultModel::MediaOutcome media = faults_->media_check(id_, sector);
  if (media.error) {
    ++report_.media_errors;
    if (media.new_remap) ++report_.remapped_sectors;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kMediaError;
      ev.disk = id_;
      ev.t0 = clock_;
      ev.t1 = clock_;
      ev.value = media.new_remap ? 1 : 0;
      tracer_->emit(ev);
    }
    // Retry the transfer from the (re)mapped location: a full
    // non-sequential re-read at the current level.
    service += seek_ms + lv.rot_latency_ms +
               static_cast<double>(size_bytes) / lv.bytes_per_ms;
  }
  return service * faults_->service_jitter_factor(id_);
}

void DiskUnit::park_to(TimeMs t, int park) {
  SDPM_REQUIRE(park >= 0 && park < params_->park_count(),
               "park index out of range");
  const int resident = current_park();
  if (resident >= 0 && resident <= park) return;  // already at-or-deeper
  if (faults_ != nullptr && faults_->drops_directive(id_)) {
    ++report_.dropped_directives;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kDirectiveDropped;
      ev.disk = id_;
      ev.t0 = t;
      ev.t1 = t;
      ev.value = park;
      ev.label = params_->park_name(park).c_str();
      tracer_->emit(ev);
    }
    return;
  }
  advance_to(std::max(t, clock_));
  settle();
  const bool parked = mode_ == DiskMode::kStandby;
  if (parked && park_ <= park) return;
  // Hold when the ladder has no edge for the requested move (a reactive
  // policy may ask for a deepening the hardware cannot do directly).
  if (parked ? !params_->park_descent_possible(park_, park)
             : !params_->park_entry_possible(level_, park)) {
    return;
  }
  ++report_.spin_downs;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = clock_;
    ev.t1 = clock_;
    ev.value = park;
    ev.label = params_->park_name(park).c_str();
    tracer_->emit(ev);
  }
  begin_transition(disk::PowerState::kSpinningDown,
                   parked ? params_->park_descent_time(park_, park)
                          : params_->park_entry_time(level_, park),
                   parked ? params_->park_descent_energy(park_, park)
                          : params_->park_entry_energy(level_, park),
                   DiskMode::kStandby, level_, park);
}

void DiskUnit::spin_up(TimeMs t) {
  if (mode_ == DiskMode::kSpinning) return;
  if (mode_ == DiskMode::kTransition &&
      trans_.after_mode == DiskMode::kSpinning) {
    return;
  }
  advance_to(std::max(t, clock_));
  settle();
  if (mode_ == DiskMode::kSpinning) return;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = clock_;
    ev.t1 = clock_;
    ev.label = "spin_up";
    tracer_->emit(ev);
  }
  begin_spin_up();
}

void DiskUnit::set_rpm_level(TimeMs t, int level) {
  SDPM_REQUIRE(level >= 0 && level < params_->rpm_level_count(),
               "RPM level out of range");
  SDPM_REQUIRE(current_park() < 0,
               "set_rpm_level on a standby disk (spin it up first)");
  if (target_level() == level) return;
  if (faults_ != nullptr && faults_->drops_directive(id_)) {
    ++report_.dropped_directives;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kDirectiveDropped;
      ev.disk = id_;
      ev.t0 = t;
      ev.t1 = t;
      ev.level = level;
      ev.label = "set_rpm";
      tracer_->emit(ev);
    }
    return;
  }
  advance_to(std::max(t, clock_));
  settle();
  if (level_ == level) return;
  ++report_.rpm_transitions;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = clock_;
    ev.t1 = clock_;
    ev.level = level;
    ev.label = "set_rpm";
    tracer_->emit(ev);
  }
  begin_transition(disk::PowerState::kRpmShift,
                   params_->rpm_transition_time(level_, level),
                   params_->rpm_transition_energy(level_, level),
                   DiskMode::kSpinning, level);
}

void DiskUnit::finish(TimeMs end) {
  advance_to(std::max(end, clock_));
  settle();
}

}  // namespace sdpm::sim
