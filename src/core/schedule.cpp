#include "core/schedule.h"

#include <algorithm>
#include <cmath>

#include "policy/oracle.h"
#include "trace/stall_aware.h"
#include "util/error.h"

namespace sdpm::core {

const char* to_string(PowerMode mode) {
  return mode == PowerMode::kTpm ? "CMTPM" : "CMDRPM";
}

std::int64_t preactivation_distance(TimeMs t_su_ms, TimeMs s_ms,
                                    TimeMs t_m_ms) {
  SDPM_REQUIRE(s_ms + t_m_ms > 0, "per-iteration time must be positive");
  return static_cast<std::int64_t>(std::ceil(t_su_ms / (s_ms + t_m_ms)));
}

namespace {

std::int64_t snap_down(std::int64_t g, std::int64_t granularity) {
  return granularity <= 1 ? g : (g / granularity) * granularity;
}

std::int64_t snap_up(std::int64_t g, std::int64_t granularity) {
  return granularity <= 1 ? g
                          : ((g + granularity - 1) / granularity) * granularity;
}

bool by_point(const ir::PlacedDirective& a, const ir::PlacedDirective& b) {
  return a.point < b.point;
}

/// Merge the sorted runs [bounds[i], bounds[i + 1]) of `directives`
/// pairwise until one is left.  Equal points keep their run order, so the
/// result is what a stable sort of the whole vector gives.
void merge_runs(std::vector<ir::PlacedDirective>& directives,
                std::vector<std::size_t> bounds) {
  const auto at = [&](std::size_t i) {
    return directives.begin() + static_cast<std::ptrdiff_t>(i);
  };
  while (bounds.size() > 2) {
    std::size_t kept = 1;
    for (std::size_t i = 0; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(at(bounds[i]), at(bounds[i + 1]), at(bounds[i + 2]),
                         by_point);
      bounds[kept++] = bounds[i + 2];
    }
    if (bounds.size() % 2 == 0) bounds[kept++] = bounds.back();
    bounds.resize(kept);
  }
}

}  // namespace

ScheduleResult schedule_power_calls(const ir::Program& program,
                                    const layout::LayoutTable& layout,
                                    const disk::DiskParameters& params,
                                    const SchedulerOptions& options) {
  SDPM_REQUIRE(options.call_site_granularity >= 1,
               "call-site granularity must be >= 1");
  ScheduleResult result;
  result.program = program;

  const trace::DiskAccessPattern dap =
      trace::DiskAccessPattern::analyze(program, layout, options.access);
  const trace::StallAwareTimeline nominal(
      trace::Timeline(program, options.access.clock_hz));
  const trace::StallAwareTimeline& est =
      options.estimate != nullptr ? *options.estimate : nominal;
  const trace::IterationSpace& space = nominal.compute().space();
  SDPM_REQUIRE(est.compute().space() == space,
               "estimate timeline does not match the program");
  const std::int64_t total = space.total();
  const int top = params.max_level();
  const TimeMs tm = options.access.power_call_overhead_ms;

  // The input's directives, sorted, are the first run; each disk appends
  // one more in point order, and merge_runs joins them.
  std::vector<ir::PlacedDirective>& directives = result.program.directives;
  std::stable_sort(directives.begin(), directives.end(), by_point);
  std::vector<std::size_t> runs{0, directives.size()};

  for (int d = 0; d < dap.disk_count(); ++d) {
    // A disk's gaps come in increasing order, so two forward cursors read
    // both ends of every gap without searching the timeline.
    trace::StallAwareTimeline::Cursor gap_begin(est);
    trace::StallAwareTimeline::Cursor gap_end(est);
    // Every site lies in its gap, so in a nest between the cursors'.
    const auto place = [&](std::int64_t g, ir::PowerDirective directive) {
      const int nest = space.nest_of(g, gap_begin.nest(), gap_end.nest());
      directives.push_back(ir::PlacedDirective{
          ir::IterationPoint{nest, g - space.nest_begin(nest)}, directive});
      ++result.calls_inserted;
    };
    const IntervalSet idle = dap.idle_periods(d);
    for (const Interval& gap : idle.intervals()) {
      GapPlan plan;
      plan.disk = d;
      plan.mode = options.mode;
      plan.begin_iter = gap.lo;
      plan.end_iter = gap.hi;
      plan.estimated_ms = gap_end.at(gap.hi) - gap_begin.at(gap.lo);
      const TimeMs discounted =
          plan.estimated_ms * (1.0 - kSafetyMargin);
      const bool has_next_use = gap.hi < total;

      if (options.mode == PowerMode::kTpm) {
        plan.level = -1;
        const bool beneficial =
            policy::spin_down_beneficial(discounted, params);
        if (beneficial) {
          const std::int64_t down_site = std::min(
              snap_up(gap.lo, options.call_site_granularity), gap.hi);
          place(down_site,
                ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, d, 0});
          if (has_next_use && options.preactivate) {
            const TimeMs lead =
                (params.wake_time(params.default_park()) + tm) *
                (1.0 + kSafetyMargin);
            std::int64_t up_site =
                est.latest_start(gap_begin, gap_end, lead);
            up_site = std::max(snap_down(up_site,
                                         options.call_site_granularity),
                               down_site);
            place(up_site,
                  ir::PowerDirective{ir::PowerDirective::Kind::kSpinUp, d, 0});
          }
          plan.acted = true;
        } else {
          plan.level = top;  // stay up
        }
      } else {
        // The level follows the estimate directly: an RPM round trip that
        // slightly overruns a mispredicted gap delays the next request by
        // at most the residual transition (tens of ms), never a full
        // spin-up.  Conservatism is applied where it matters — the
        // pre-activation lead below.
        const int level =
            policy::optimal_rpm_level(plan.estimated_ms, params);
        plan.level = level;
        if (level < top) {
          const std::int64_t down_site = std::min(
              snap_up(gap.lo, options.call_site_granularity), gap.hi);
          place(down_site, ir::PowerDirective{
                               ir::PowerDirective::Kind::kSetRpm, d, level});
          if (has_next_use && options.preactivate) {
            const TimeMs lead = (params.rpm_transition_time(level, top) + tm) *
                                (1.0 + kSafetyMargin);
            std::int64_t up_site =
                est.latest_start(gap_begin, gap_end, lead);
            up_site = std::max(snap_down(up_site,
                                         options.call_site_granularity),
                               down_site);
            place(up_site, ir::PowerDirective{
                               ir::PowerDirective::Kind::kSetRpm, d, top});
          }
          plan.acted = true;
        }
      }
      result.plans.push_back(plan);
    }
    if (directives.size() > runs.back()) runs.push_back(directives.size());
  }

  merge_runs(directives, std::move(runs));
  result.program.validate();
  return result;
}

}  // namespace sdpm::core
