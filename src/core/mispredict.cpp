#include "core/mispredict.h"

#include "policy/oracle.h"

namespace sdpm::core {

MispredictStats compare_with_oracle(const std::vector<GapPlan>& plans,
                                    const trace::StallAwareTimeline& actual,
                                    const disk::DiskParameters& params,
                                    PowerMode mode) {
  MispredictStats stats;
  // The scheduler's plans come disk-major, each disk's gaps in increasing
  // order; a cursor restarts by itself where a plan goes back.
  trace::StallAwareTimeline::Cursor gap_begin(actual);
  trace::StallAwareTimeline::Cursor gap_end(actual);
  for (const GapPlan& plan : plans) {
    const TimeMs actual_gap =
        gap_end.at(plan.end_iter) - gap_begin.at(plan.begin_iter);
    ++stats.gaps;
    if (mode == PowerMode::kDrpm) {
      const int oracle = policy::optimal_rpm_level(actual_gap, params);
      if (oracle != plan.level) ++stats.mispredicted;
    } else {
      const bool oracle_down =
          policy::spin_down_beneficial(actual_gap, params);
      const bool planned_down = plan.level == -1 && plan.acted;
      if (oracle_down != planned_down) ++stats.mispredicted;
    }
  }
  return stats;
}

}  // namespace sdpm::core
