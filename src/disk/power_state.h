// Disk power-state taxonomy and energy accounting buckets.
#pragma once

#include "util/error.h"
#include "util/units.h"

namespace sdpm::disk {

/// Operating condition a disk can be in at a point of simulated time.
enum class PowerState {
  kActive,        ///< servicing a request (at some RPM level)
  kIdle,          ///< spinning, no request in service (at some RPM level)
  kStandby,       ///< spun down (TPM low-power mode)
  kSpinningDown,  ///< TPM transition idle -> standby
  kSpinningUp,    ///< TPM transition standby -> active
  kRpmShift,      ///< DRPM transition between RPM levels
};

const char* to_string(PowerState state);

/// Per-disk time and energy decomposition across the states above; the
/// simulator reports one of these per disk plus the system-wide sum.
struct EnergyBreakdown {
  TimeMs active_ms = 0;
  TimeMs idle_ms = 0;
  TimeMs standby_ms = 0;
  TimeMs spin_down_ms = 0;
  TimeMs spin_up_ms = 0;
  TimeMs rpm_shift_ms = 0;

  Joules active_j = 0;
  Joules idle_j = 0;
  Joules standby_j = 0;
  Joules spin_down_j = 0;
  Joules spin_up_j = 0;
  Joules rpm_shift_j = 0;

  TimeMs total_ms() const {
    return active_ms + idle_ms + standby_ms + spin_down_ms + spin_up_ms +
           rpm_shift_ms;
  }
  Joules total_j() const {
    return active_j + idle_j + standby_j + spin_down_j + spin_up_j +
           rpm_shift_j;
  }

  // Inline: the simulator calls this once per energy segment, i.e. at
  // least once per serviced request — a cross-TU call here is measurable.
  void add(PowerState state, TimeMs duration, Joules energy) {
    SDPM_ASSERT(duration >= -1e-9 && energy >= -1e-9,
                "negative duration or energy");
    switch (state) {
      case PowerState::kActive:
        active_ms += duration;
        active_j += energy;
        break;
      case PowerState::kIdle:
        idle_ms += duration;
        idle_j += energy;
        break;
      case PowerState::kStandby:
        standby_ms += duration;
        standby_j += energy;
        break;
      case PowerState::kSpinningDown:
        spin_down_ms += duration;
        spin_down_j += energy;
        break;
      case PowerState::kSpinningUp:
        spin_up_ms += duration;
        spin_up_j += energy;
        break;
      case PowerState::kRpmShift:
        rpm_shift_ms += duration;
        rpm_shift_j += energy;
        break;
    }
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& other);
};

}  // namespace sdpm::disk
