#include "policy/proactive.h"

#include "sim/replay.h"

namespace sdpm::policy {

void ProactivePolicy::on_power_event(sim::DiskUnit& disk, TimeMs now,
                                     const ir::PowerDirective& directive) {
  switch (directive.kind) {
    case ir::PowerDirective::Kind::kSpinDown:
      disk.park_to(now, disk.params().default_park());
      break;
    case ir::PowerDirective::Kind::kSpinUp:
      disk.spin_up(now);
      break;
    case ir::PowerDirective::Kind::kSetRpm:
      // A mispredicted timeline can ask for a speed change while the disk
      // is (still) heading to standby under a CMTPM-style schedule; wake it
      // first so the command remains meaningful.
      if (disk.current_park() >= 0) {
        disk.spin_up(now);
      }
      disk.set_rpm_level(now, directive.rpm_level);
      break;
  }
}


sim::PowerPolicy::ReplayFn ProactivePolicy::replay_kernel() const {
  return &sim::replay_run<ProactivePolicy>;
}

}  // namespace sdpm::policy
