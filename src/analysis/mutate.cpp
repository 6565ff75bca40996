#include "analysis/mutate.h"

#include <algorithm>
#include <map>
#include <utility>

#include "trace/iteration_space.h"
#include "util/error.h"

namespace sdpm::analysis {

namespace {

/// Delay every restore call (spin_up, or set_RPM back to the top level)
/// that has a later use to one iteration before its gap ends.
int mutate_late_preactivation(core::ScheduleResult& result,
                              const disk::DiskParameters& params) {
  const trace::IterationSpace space(result.program);
  const std::int64_t total = space.total();
  const int top = params.max_level();
  // Each disk's directives as (global iteration, index), kept sorted as
  // they move, so each gap finds its directives by binary search.
  using Site = std::pair<std::int64_t, std::size_t>;
  std::map<int, std::vector<Site>> sites_by_disk;
  for (std::size_t i = 0; i < result.program.directives.size(); ++i) {
    const ir::PlacedDirective& pd = result.program.directives[i];
    sites_by_disk[pd.directive.disk].push_back(
        {space.global_of(pd.point), i});
  }
  for (auto& [disk, sites] : sites_by_disk) {
    std::sort(sites.begin(), sites.end());
  }
  int moved = 0;
  for (const core::GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter >= total) continue;
    if (plan.end_iter <= plan.begin_iter + 1) continue;
    const auto found = sites_by_disk.find(plan.disk);
    if (found == sites_by_disk.end()) continue;
    std::vector<Site>& sites = found->second;
    const std::int64_t target = plan.end_iter - 1;
    auto it = std::lower_bound(sites.begin(), sites.end(),
                               Site{plan.begin_iter, 0});
    while (it != sites.end() && it->first <= plan.end_iter) {
      ir::PlacedDirective& pd = result.program.directives[it->second];
      const bool restore =
          pd.directive.kind == ir::PowerDirective::Kind::kSpinUp ||
          (pd.directive.kind == ir::PowerDirective::Kind::kSetRpm &&
           pd.directive.rpm_level == top);
      if (!restore || target <= it->first) {
        ++it;
        continue;
      }
      pd.point = space.point_of(target);
      ++moved;
      // Re-seat the moved site at `target`; the sites it passes shift
      // down one place, so `it` already names the next one.
      const Site site{target, it->second};
      const auto dest = std::upper_bound(it + 1, sites.end(), site);
      std::rotate(it, it + 1, dest);
      *(dest - 1) = site;
    }
  }
  result.program.sort_directives();
  return moved;
}

/// Insert a spin_down/spin_up pair into the first idle period the
/// scheduler left alone because it is shorter than the break-even time.
int mutate_short_gap(core::ScheduleResult& result,
                     const disk::DiskParameters& params) {
  const trace::IterationSpace space(result.program);
  const TimeMs break_even = params.break_even_time();
  for (core::GapPlan& plan : result.plans) {
    if (plan.acted || plan.end_iter <= plan.begin_iter) continue;
    if (plan.estimated_ms >= break_even) continue;
    result.program.directives.push_back(
        {space.point_of(plan.begin_iter),
         {ir::PowerDirective::Kind::kSpinDown, plan.disk, 0}});
    result.program.directives.push_back(
        {space.point_of(plan.end_iter),
         {ir::PowerDirective::Kind::kSpinUp, plan.disk, 0}});
    plan.acted = true;
    plan.level = -1;
    result.calls_inserted += 2;
    result.program.sort_directives();
    return 1;
  }
  return 0;
}

/// Collapse the fission disk partition: every array striped like the
/// second distinct group is re-based onto the first group's disks.
int mutate_overlap_fission(std::vector<layout::Striping>& striping) {
  if (striping.empty()) return 0;
  const layout::Striping first = striping.front();
  const layout::Striping* second = nullptr;
  for (const layout::Striping& s : striping) {
    if (!(s == first)) {
      second = &s;
      break;
    }
  }
  if (second == nullptr) return 0;
  const layout::Striping target = *second;
  int retargeted = 0;
  for (layout::Striping& s : striping) {
    if (s == target) {
      s.starting_disk = first.starting_disk;
      ++retargeted;
    }
  }
  return retargeted;
}

}  // namespace

const char* to_string(Mutation mutation) {
  switch (mutation) {
    case Mutation::kLatePreactivation:
      return "late-preact";
    case Mutation::kShortGapSpinDown:
      return "short-gap";
    case Mutation::kOverlappingFission:
      return "overlap-fission";
  }
  return "?";
}

std::optional<Mutation> mutation_from_name(std::string_view name) {
  if (name == "late-preact") return Mutation::kLatePreactivation;
  if (name == "short-gap") return Mutation::kShortGapSpinDown;
  if (name == "overlap-fission") return Mutation::kOverlappingFission;
  return std::nullopt;
}

void apply_mutation(Mutation mutation, core::ScheduleResult& result,
                    std::vector<layout::Striping>& striping,
                    const disk::DiskParameters& params) {
  int sites = 0;
  switch (mutation) {
    case Mutation::kLatePreactivation:
      sites = mutate_late_preactivation(result, params);
      SDPM_REQUIRE(sites > 0,
                   "late-preact found no restore call to delay (is "
                   "pre-activation enabled and the schedule acted?)");
      break;
    case Mutation::kShortGapSpinDown:
      sites = mutate_short_gap(result, params);
      SDPM_REQUIRE(sites > 0,
                   "short-gap found no sub-break-even idle period to "
                   "corrupt");
      break;
    case Mutation::kOverlappingFission:
      sites = mutate_overlap_fission(striping);
      SDPM_REQUIRE(sites > 0,
                   "overlap-fission needs a layout-aware transform with "
                   "at least two disk groups (use --transform LFDL)");
      break;
  }
}

}  // namespace sdpm::analysis
