#include "analysis/pass.h"

#include <algorithm>
#include <exception>
#include <tuple>

namespace sdpm::analysis {

AnalysisContext::AnalysisContext(const core::ScheduleResult& result,
                                 const layout::LayoutTable& layout,
                                 const disk::DiskParameters& params,
                                 AnalyzeOptions options)
    : result_(&result),
      layout_(&layout),
      params_(&params),
      options_(options),
      space_(result.program),
      nominal_(result.program, options.access.clock_hz) {
  const int disks = layout.total_disks();
  directives_by_disk_.resize(static_cast<std::size_t>(disks));
  for (int i = 0; i < static_cast<int>(result.program.directives.size());
       ++i) {
    const ir::PlacedDirective& pd =
        result.program.directives[static_cast<std::size_t>(i)];
    const int disk = pd.directive.disk;
    if (disk < 0 || disk >= disks) continue;  // wellformed pass reports it
    directives_by_disk_[static_cast<std::size_t>(disk)].push_back(
        {space_.global_of(pd.point), i});
  }
  for (auto& dirs : directives_by_disk_) {
    std::stable_sort(dirs.begin(), dirs.end(),
                     [](const DirRef& a, const DirRef& b) {
                       return std::tie(a.global, a.index) <
                              std::tie(b.global, b.index);
                     });
  }

  plans_by_disk_.resize(static_cast<std::size_t>(disks));
  for (const core::GapPlan& plan : result.plans) {
    if (plan.disk < 0 || plan.disk >= disks) continue;
    plans_by_disk_[static_cast<std::size_t>(plan.disk)].push_back(&plan);
  }
  for (auto& plans : plans_by_disk_) {
    std::stable_sort(plans.begin(), plans.end(),
                     [](const core::GapPlan* a, const core::GapPlan* b) {
                       return a->begin_iter < b->begin_iter;
                     });
  }

  // A plan ending before the program does ends at an access.  The stable
  // sort keeps plans_of order among plans that end at the same iteration.
  accesses_by_disk_.resize(static_cast<std::size_t>(disks));
  for (int disk = 0; disk < disks; ++disk) {
    std::vector<AccessPoint>& accesses =
        accesses_by_disk_[static_cast<std::size_t>(disk)];
    for (const core::GapPlan* plan : plans_of(disk)) {
      if (plan->end_iter < space_.total()) {
        accesses.push_back({plan->end_iter, plan->begin_iter});
      }
    }
    std::stable_sort(accesses.begin(), accesses.end(),
                     [](const AccessPoint& a, const AccessPoint& b) {
                       return a.global < b.global;
                     });
  }
}

TimeMs AnalysisContext::at(std::int64_t g) const {
  return nominal_.at_global(std::clamp<std::int64_t>(g, 0, space_.total()));
}

TimeMs AnalysisContext::iter_ms(std::int64_t g) const {
  if (g < 0 || g >= space_.total()) return 0;
  return at(g + 1) - at(g);
}

const trace::DiskAccessPattern* AnalysisContext::dap() {
  if (!dap_attempted_) {
    dap_attempted_ = true;
    try {
      dap_ = trace::DiskAccessPattern::analyze(result_->program, *layout_,
                                               options_.access);
    } catch (const std::exception& e) {
      dap_error_ = e.what();
    }
  }
  return dap_.has_value() ? &*dap_ : nullptr;
}

const std::vector<AnalysisContext::DirRef>& AnalysisContext::directives_of(
    int disk) const {
  return directives_by_disk_[static_cast<std::size_t>(disk)];
}

std::span<const AnalysisContext::DirRef> AnalysisContext::directives_in(
    int disk, std::int64_t lo, std::int64_t hi) const {
  if (hi < lo) return {};
  const std::vector<DirRef>& dirs = directives_of(disk);
  const auto first = std::lower_bound(
      dirs.begin(), dirs.end(), lo,
      [](const DirRef& r, std::int64_t g) { return r.global < g; });
  const auto last = std::upper_bound(
      first, dirs.end(), hi,
      [](std::int64_t g, const DirRef& r) { return g < r.global; });
  return {first, last};
}

const std::vector<const core::GapPlan*>& AnalysisContext::plans_of(
    int disk) const {
  return plans_by_disk_[static_cast<std::size_t>(disk)];
}

const std::vector<AnalysisContext::AccessPoint>&
AnalysisContext::access_points_of(int disk) const {
  return accesses_by_disk_[static_cast<std::size_t>(disk)];
}

DiagLocation AnalysisContext::loc_at(std::int64_t g, int disk,
                                     int directive) const {
  const ir::IterationPoint point =
      space_.point_of(std::clamp<std::int64_t>(g, 0, space_.total()));
  DiagLocation loc;
  loc.disk = disk;
  loc.nest = point.nest_index;
  loc.iteration = point.flat_iteration;
  loc.directive = directive;
  return loc;
}

}  // namespace sdpm::analysis
