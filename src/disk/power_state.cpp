#include "disk/power_state.h"

#include "util/error.h"

namespace sdpm::disk {

const char* to_string(PowerState state) {
  switch (state) {
    case PowerState::kActive:
      return "active";
    case PowerState::kIdle:
      return "idle";
    case PowerState::kStandby:
      return "standby";
    case PowerState::kSpinningDown:
      return "spin-down";
    case PowerState::kSpinningUp:
      return "spin-up";
    case PowerState::kRpmShift:
      return "rpm-shift";
  }
  return "?";
}

EnergyBreakdown& EnergyBreakdown::operator+=(const EnergyBreakdown& other) {
  active_ms += other.active_ms;
  idle_ms += other.idle_ms;
  standby_ms += other.standby_ms;
  spin_down_ms += other.spin_down_ms;
  spin_up_ms += other.spin_up_ms;
  rpm_shift_ms += other.rpm_shift_ms;
  active_j += other.active_j;
  idle_j += other.idle_j;
  standby_j += other.standby_j;
  spin_down_j += other.spin_down_j;
  spin_up_j += other.spin_up_j;
  rpm_shift_j += other.rpm_shift_j;
  return *this;
}

}  // namespace sdpm::disk
