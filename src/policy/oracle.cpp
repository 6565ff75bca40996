#include "policy/oracle.h"

#include <algorithm>

#include "util/error.h"

namespace sdpm::policy {

bool drpm_level_feasible(TimeMs gap_ms, int level,
                         const disk::DiskParameters& params) {
  const int top = params.max_level();
  if (level == top) return true;
  const TimeMs round_trip = params.rpm_transition_time(top, level) +
                            params.rpm_transition_time(level, top);
  return round_trip <= gap_ms;
}

Joules drpm_gap_energy(TimeMs gap_ms, int level,
                       const disk::DiskParameters& params) {
  SDPM_REQUIRE(gap_ms >= 0, "negative gap");
  const int top = params.max_level();
  if (level == top) {
    return joules_from_watt_ms(params.idle_power_at_level(top), gap_ms);
  }
  SDPM_REQUIRE(drpm_level_feasible(gap_ms, level, params),
               "RPM round trip does not fit in the gap");
  const TimeMs down = params.rpm_transition_time(top, level);
  const TimeMs up = params.rpm_transition_time(level, top);
  return params.rpm_transition_energy(top, level) +
         params.rpm_transition_energy(level, top) +
         joules_from_watt_ms(params.idle_power_at_level(level),
                             gap_ms - down - up);
}

int optimal_rpm_level(TimeMs gap_ms, const disk::DiskParameters& params) {
  SDPM_REQUIRE(gap_ms >= 0, "negative gap");
  // One pass down the ladder: each level's two shifts are read once and
  // serve both the round-trip test of drpm_level_feasible and the energy
  // of drpm_gap_energy, evaluated with their expressions in their order.
  const disk::PowerLadder& ladder = params.ladder();
  const auto states = static_cast<std::size_t>(ladder.state_count());
  const auto top = static_cast<std::size_t>(ladder.top_state());
  const int parks = params.park_count();  // level l is state parks + l
  int best = params.max_level();
  Joules best_energy =
      joules_from_watt_ms(ladder.states[top].idle_power, gap_ms);
  for (int level = best - 1; level >= 0; --level) {
    const auto state = static_cast<std::size_t>(parks + level);
    const disk::LadderEdge& down = ladder.edges[top * states + state];
    const disk::LadderEdge& up = ladder.edges[state * states + top];
    if (!(down.time_ms + up.time_ms <= gap_ms)) break;
    const Joules e = down.energy_j + up.energy_j +
                     joules_from_watt_ms(ladder.states[state].idle_power,
                                         gap_ms - down.time_ms - up.time_ms);
    if (e < best_energy - 1e-12) {
      best_energy = e;
      best = level;
    }
  }
  return best;
}

namespace {

/// Parking in `park` from the top level fits in the gap and pays off.
bool park_pays_off(TimeMs gap_ms, int park,
                   const disk::DiskParameters& params) {
  const int top = params.max_level();
  return params.park_entry_possible(top, park) &&
         gap_ms >= params.park_entry_time(top, park) + params.wake_time(park) &&
         gap_ms > params.break_even_time(park);
}

}  // namespace

bool tpm_gap_beneficial(TimeMs gap_ms, const disk::DiskParameters& params) {
  for (int park = 0; park < params.park_count(); ++park) {
    if (park_pays_off(gap_ms, park, params)) return true;
  }
  return false;
}

bool spin_down_beneficial(TimeMs gap_ms,
                          const disk::DiskParameters& params) {
  return park_pays_off(gap_ms, params.default_park(), params);
}

int min_serviceable_level(Bytes request_bytes, TimeMs interarrival_ms,
                          const disk::DiskParameters& params) {
  const int top = params.max_level();
  for (int level = 0; level < top; ++level) {
    if (params.service_time(request_bytes, level, true) <= interarrival_ms) {
      return level;
    }
  }
  return top;
}

Joules tpm_gap_energy(TimeMs gap_ms, const disk::DiskParameters& params) {
  // The oracle picks the cheapest qualifying park for the gap: stay idle at
  // the top level, or pay the park's entry and wake plus its resident power
  // over the rest of the gap.
  const int top = params.max_level();
  Joules best = joules_from_watt_ms(params.idle_power_at_level(top), gap_ms);
  for (int park = 0; park < params.park_count(); ++park) {
    if (!park_pays_off(gap_ms, park, params)) continue;
    const TimeMs residence =
        gap_ms - params.park_entry_time(top, park) - params.wake_time(park);
    const Joules spin = params.park_entry_energy(top, park) +
                        params.wake_energy(park) +
                        joules_from_watt_ms(params.park_power(park),
                                            residence);
    best = std::min(best, spin);
  }
  return best;
}

namespace {

/// Enumerate the idle gaps of one disk within [0, end] and apply `fn(start,
/// length)` to each; returns the total active-service energy meanwhile.
template <typename GapFn>
Joules for_each_gap(const sim::DiskReport& disk_report, TimeMs end,
                    const disk::DiskParameters& params, GapFn&& fn) {
  const Watts active = params.active_power_at_level(params.max_level());
  Joules active_energy = 0;
  TimeMs cursor = 0;
  for (const sim::BusyPeriod& bp : disk_report.busy_periods) {
    if (bp.start > cursor) fn(cursor, bp.start - cursor);
    active_energy += joules_from_watt_ms(active, bp.completion - bp.start);
    cursor = bp.completion;
  }
  if (end > cursor) fn(cursor, end - cursor);
  return active_energy;
}

}  // namespace

OracleReport ideal_tpm(const sim::SimReport& base,
                       const disk::DiskParameters& params) {
  OracleReport report;
  report.policy_name = "ITPM";
  report.execution_ms = base.execution_ms;
  for (int d = 0; d < base.disk_count(); ++d) {
    const sim::DiskReport& dr = base.disks[static_cast<std::size_t>(d)];
    Joules energy = 0;
    const Joules active = for_each_gap(
        dr, base.execution_ms, params, [&](TimeMs start, TimeMs gap) {
          const bool down = tpm_gap_beneficial(gap, params);
          report.choices.push_back(
              OracleChoice{d, start, gap, down ? -1 : params.max_level()});
          energy += tpm_gap_energy(gap, params);
        });
    energy += active;
    report.disk_energy.push_back(energy);
    report.total_energy += energy;
  }
  return report;
}

OracleReport ideal_drpm(const sim::SimReport& base,
                        const disk::DiskParameters& params) {
  OracleReport report;
  report.policy_name = "IDRPM";
  report.execution_ms = base.execution_ms;
  for (int d = 0; d < base.disk_count(); ++d) {
    const sim::DiskReport& dr = base.disks[static_cast<std::size_t>(d)];
    Joules energy = 0;
    const Joules active = for_each_gap(
        dr, base.execution_ms, params, [&](TimeMs start, TimeMs gap) {
          const int level = optimal_rpm_level(gap, params);
          report.choices.push_back(OracleChoice{d, start, gap, level});
          energy += drpm_gap_energy(gap, level, params);
        });
    energy += active;
    report.disk_energy.push_back(energy);
    report.total_energy += energy;
  }
  return report;
}

}  // namespace sdpm::policy
