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
    : params_(&params), id_(id), faults_(faults), state_(nullptr), slot_(0),
      level_residency_(static_cast<std::size_t>(params.rpm_level_count()),
                       0.0) {
  owned_ = std::make_unique<DiskArrayState>(1, params);
  state_ = owned_.get();
}

DiskUnit::DiskUnit(DiskArrayState& state, int slot,
                   const disk::DiskParameters& params, int id,
                   FaultModel* faults)
    : params_(&params), id_(id), faults_(faults), state_(&state),
      slot_(static_cast<std::size_t>(slot)),
      level_residency_(static_cast<std::size_t>(params.rpm_level_count()),
                       0.0) {
  SDPM_REQUIRE(slot >= 0 && slot_ < state.core.size(),
               "disk slot out of range for the array state");
}

void DiskUnit::emit_state_segment(disk::PowerState bucket, TimeMs dt,
                                  Joules energy) {
  obs::Event ev;
  ev.kind = obs::EventKind::kStateSegment;
  ev.disk = id_;
  ev.t0 = core().clock;
  ev.t1 = core().clock + dt;
  ev.state = bucket;
  ev.level = core().level;
  ev.energy_j = energy;
  ev.value = dt;
  ev.label = state_label(*params_, core().mode, core().level, core().park);
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
  ev.level = core().level;
  ev.energy_j = energy;
  ev.value = dt;
  ev.label =
      state_label(*params_, DiskMode::kSpinning, core().level, core().park);
  tracer_->emit(ev);
}

void DiskUnit::begin_transition(disk::PowerState bucket, TimeMs duration,
                                Joules energy, DiskMode after,
                                int level_after, int park_after) {
  DiskArrayState::Core& c = core();
  SDPM_ASSERT(c.mode != DiskMode::kTransition,
              "transition already in flight");
  if (duration <= 0) {
    c.mode = after;
    c.level = level_after;
    c.park = static_cast<std::uint8_t>(park_after);
    breakdown_.add(bucket, 0, energy);
    if (tracer_ != nullptr && energy > 0) {
      // Instant transitions still pay their energy; report a zero-width
      // segment so timeline consumers reconcile exactly with the breakdown.
      obs::Event ev;
      ev.kind = obs::EventKind::kStateSegment;
      ev.disk = id_;
      ev.t0 = c.clock;
      ev.t1 = c.clock;
      ev.state = bucket;
      ev.level = level_after;
      ev.energy_j = energy;
      tracer_->emit(ev);
    }
    return;
  }
  c.mode = DiskMode::kTransition;
  DiskArrayState::Transition& tr = trans();
  tr.end = c.clock + duration;
  tr.power = energy / seconds_from_ms(duration);
  tr.bucket = bucket;
  tr.after_mode = after;
  tr.after_level = level_after;
  tr.after_park = static_cast<std::uint8_t>(park_after);
}

int DiskUnit::target_level() const {
  const DiskArrayState::Core& c = core();
  if (c.mode == DiskMode::kTransition &&
      trans().after_mode == DiskMode::kSpinning) {
    return trans().after_level;
  }
  return c.level;
}

bool DiskUnit::heading_to_standby() const {
  const DiskArrayState::Core& c = core();
  return c.mode == DiskMode::kStandby ||
         (c.mode == DiskMode::kTransition &&
          trans().after_mode == DiskMode::kStandby);
}

int DiskUnit::current_park() const {
  const DiskArrayState::Core& c = core();
  if (c.mode == DiskMode::kStandby) return c.park;
  if (c.mode == DiskMode::kTransition &&
      trans().after_mode == DiskMode::kStandby) {
    return trans().after_park;
  }
  return -1;
}

void DiskUnit::begin_spin_up() {
  SDPM_ASSERT(core().mode == DiskMode::kStandby,
              "spin-up must start from standby");
  // Wake cost depends on the resident park (the paper disk: its standby
  // park, whose wake edge carries the Table 1 spin-up figures).
  const int park = core().park;
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
      ++spin_up_retries_;
      const TimeMs backoff = faults_->backoff_ms(attempt);
      if (tracer_ != nullptr) {
        obs::Event ev;
        ev.kind = obs::EventKind::kSpinUpRetry;
        ev.disk = id_;
        ev.t0 = core().clock;
        ev.t1 = core().clock;
        ev.value = backoff;
        tracer_->emit(ev);
      }
      begin_transition(disk::PowerState::kSpinningUp, attempt_ms, attempt_j,
                       DiskMode::kStandby, core().level, park);
      settle();
      advance_to(core().clock + backoff);
      ++attempt;
    }
  }
  begin_transition(disk::PowerState::kSpinningUp, up_time, up_energy,
                   DiskMode::kSpinning, params_->max_level());
}

void DiskUnit::serve_wake(ServeResult& result) {
  DiskArrayState::Core& c = core();
  if (c.mode == DiskMode::kTransition) {
    result.waited_transition = trans().after_mode == DiskMode::kSpinning;
    settle();
  }
  if (c.mode == DiskMode::kStandby) {
    result.demand_spin_up = true;
    ++demand_spin_ups_;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kDemandSpinUp;
      ev.disk = id_;
      ev.t0 = c.clock;
      ev.t1 = c.clock;
      tracer_->emit(ev);
    }
    begin_spin_up();
    settle();
  }
}

TimeMs DiskUnit::faulted_service(BlockNo sector, Bytes size_bytes,
                                 TimeMs service) {
  const DiskArrayState::Core& c = core();
  const LevelTable::Level& lv = state_->levels[c.level];
  if (faults_->is_remapped(id_, sector)) {
    // The head must detour to the spare area: one reposition (seek +
    // rotational latency) on top of the nominal transfer.
    service += state_->levels.seek_ms() + lv.rot_latency_ms;
  }
  const FaultModel::MediaOutcome media = faults_->media_check(id_, sector);
  if (media.error) {
    ++media_errors_;
    if (media.new_remap) ++remapped_sectors_;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kMediaError;
      ev.disk = id_;
      ev.t0 = c.clock;
      ev.t1 = c.clock;
      ev.value = media.new_remap ? 1 : 0;
      tracer_->emit(ev);
    }
    // Retry the transfer from the (re)mapped location: a full
    // non-sequential re-read at the current level.
    service += state_->levels.seek_ms() + lv.rot_latency_ms +
               static_cast<double>(size_bytes) / lv.bytes_per_ms;
  }
  return service * faults_->service_jitter_factor(id_);
}

void DiskUnit::spin_down(TimeMs t) {
  if (heading_to_standby()) return;
  if (faults_ != nullptr && faults_->drops_directive(id_)) {
    ++dropped_directives_;
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kDirectiveDropped;
      ev.disk = id_;
      ev.t0 = t;
      ev.t1 = t;
      ev.label = "spin_down";
      tracer_->emit(ev);
    }
    return;
  }
  advance_to(std::max(t, core().clock));
  settle();
  if (core().mode == DiskMode::kStandby) return;
  ++spin_downs_;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = core().clock;
    ev.t1 = core().clock;
    ev.label = "spin_down";
    tracer_->emit(ev);
  }
  begin_transition(disk::PowerState::kSpinningDown,
                   params_->park_entry_time(core().level, 0),
                   params_->park_entry_energy(core().level, 0),
                   DiskMode::kStandby, core().level, params_->default_park());
}

void DiskUnit::park_to(TimeMs t, int park) {
  SDPM_REQUIRE(park >= 0 && park < params_->park_count(),
               "park index out of range");
  const int resident = current_park();
  if (resident >= 0 && resident <= park) return;  // already at-or-deeper
  if (faults_ != nullptr && faults_->drops_directive(id_)) {
    ++dropped_directives_;
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
  advance_to(std::max(t, core().clock));
  settle();
  DiskArrayState::Core& c = core();
  const bool parked = c.mode == DiskMode::kStandby;
  if (parked && c.park <= park) return;
  // Hold when the ladder has no edge for the requested move (a reactive
  // policy may ask for a deepening the hardware cannot do directly).
  if (parked ? !params_->park_descent_possible(c.park, park)
             : !params_->park_entry_possible(c.level, park)) {
    return;
  }
  ++spin_downs_;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = c.clock;
    ev.t1 = c.clock;
    ev.value = park;
    ev.label = params_->park_name(park).c_str();
    tracer_->emit(ev);
  }
  if (parked) {
    begin_transition(disk::PowerState::kSpinningDown,
                     params_->park_descent_time(c.park, park),
                     params_->park_descent_energy(c.park, park),
                     DiskMode::kStandby, c.level, park);
  } else {
    begin_transition(disk::PowerState::kSpinningDown,
                     params_->park_entry_time(c.level, park),
                     params_->park_entry_energy(c.level, park),
                     DiskMode::kStandby, c.level, park);
  }
}

void DiskUnit::spin_up(TimeMs t) {
  if (core().mode == DiskMode::kSpinning) return;
  if (core().mode == DiskMode::kTransition &&
      trans().after_mode == DiskMode::kSpinning) {
    return;
  }
  advance_to(std::max(t, core().clock));
  settle();
  if (core().mode == DiskMode::kSpinning) return;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = core().clock;
    ev.t1 = core().clock;
    ev.label = "spin_up";
    tracer_->emit(ev);
  }
  begin_spin_up();
}

void DiskUnit::set_rpm_level(TimeMs t, int level) {
  SDPM_REQUIRE(level >= 0 && level < params_->rpm_level_count(),
               "RPM level out of range");
  SDPM_REQUIRE(!heading_to_standby(),
               "set_rpm_level on a standby disk (spin it up first)");
  if (target_level() == level) return;
  if (faults_ != nullptr && faults_->drops_directive(id_)) {
    ++dropped_directives_;
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
  advance_to(std::max(t, core().clock));
  settle();
  if (core().level == level) return;
  ++rpm_transitions_;
  if (tracer_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::kDirective;
    ev.disk = id_;
    ev.t0 = core().clock;
    ev.t1 = core().clock;
    ev.level = level;
    ev.label = "set_rpm";
    tracer_->emit(ev);
  }
  begin_transition(disk::PowerState::kRpmShift,
                   params_->rpm_transition_time(core().level, level),
                   params_->rpm_transition_energy(core().level, level),
                   DiskMode::kSpinning, level);
}

void DiskUnit::finish(TimeMs end) {
  advance_to(std::max(end, core().clock));
  settle();
}

}  // namespace sdpm::sim
