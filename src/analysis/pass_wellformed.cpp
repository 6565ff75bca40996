// Well-formedness pass.
//
//   SDPM-E001  directives out of program order
//   SDPM-E002  a directive targets a disk outside the layout
//   SDPM-E003  a directive outside every planned idle period of its disk
//   SDPM-E004  spin_down on a disk already in standby
//   SDPM-E005  spin_up on a disk that is not in standby
//   SDPM-E006  set_RPM on a disk in standby
//   SDPM-E007  set_RPM level outside the disk's ladder
//   SDPM-E008  a disk left degraded where the program still uses it
//   SDPM-E009  a planned idle period that is not contained in a DAP idle
//              period of its disk (the plans and the access pattern must
//              describe the same program)
//
// E004..E008 model the simulator's demand wake: the access that ends a
// planned gap clears standby and restores full speed, so ablation
// schedules without pre-activation still verify.
#include <algorithm>
#include <cstdint>
#include <limits>

#include "analysis/pass.h"
#include "analysis/registry.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

/// Points of the half-open [lo, hi) inside `set`: a binary search for the
/// first interval ending after `lo`, then only the intervals that overlap.
std::int64_t overlap_length(const IntervalSet& set, std::int64_t lo,
                            std::int64_t hi) {
  const std::vector<Interval>& ivs = set.intervals();
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), lo,
      [](std::int64_t g, const Interval& iv) { return g < iv.hi; });
  std::int64_t length = 0;
  for (; it != ivs.end() && it->lo < hi; ++it) {
    length += std::min(it->hi, hi) - std::max(it->lo, lo);
  }
  return length;
}

class WellformedPass final : public Pass {
 public:
  const char* name() const override { return "wellformed"; }

  void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) override {
    check_program_order(ctx, out);
    for (int disk = 0; disk < ctx.total_disks(); ++disk) {
      walk_disk(ctx, disk, out);
    }
    check_dap_containment(ctx, out);
  }

 private:
  /// E001 / E002, in program order.
  void check_program_order(const AnalysisContext& ctx,
                           std::vector<Diagnostic>& out) const {
    const std::vector<ir::PlacedDirective>& directives =
        ctx.program().directives;
    std::int64_t prev_global = -1;
    for (int i = 0; i < static_cast<int>(directives.size()); ++i) {
      const ir::PlacedDirective& pd = directives[static_cast<std::size_t>(i)];
      const std::int64_t g = ctx.space().global_of(pd.point);
      const int d = pd.directive.disk;
      if (g < prev_global) {
        out.push_back(make_diagnostic(
            "SDPM-E001", name(), ctx.loc_at(g, d, i),
            str_printf("directive %d at global iteration %lld is out of "
                       "program order",
                       i, static_cast<long long>(g))));
      }
      prev_global = std::max(prev_global, g);
      if (d < 0 || d >= ctx.total_disks()) {
        out.push_back(make_diagnostic(
            "SDPM-E002", name(), ctx.loc_at(g, d, i),
            str_printf("directive targets disk %d of %d", d,
                       ctx.total_disks())));
      }
    }
  }

  /// E003..E008 over one disk's demand-wake walk.
  void walk_disk(const AnalysisContext& ctx, int d,
                 std::vector<Diagnostic>& out) const {
    const ir::Program& program = ctx.program();
    const int top = ctx.top_level();
    const std::vector<const core::GapPlan*>& plans = ctx.plans_of(d);

    bool standby = false;
    int level = top;
    // E003 cursor: the plans beginning at or before the directive, and
    // the latest end among them (plans may overlap in malformed input).
    std::size_t next_plan = 0;
    std::int64_t max_end = std::numeric_limits<std::int64_t>::min();

    ctx.merge_walk(
        d,
        [&](const AnalysisContext::AccessPoint&) {
          standby = false;
          level = top;
        },
        [&](const AnalysisContext::DirRef& ref) {
          for (; next_plan < plans.size() &&
                 plans[next_plan]->begin_iter <= ref.global;
               ++next_plan) {
            max_end = std::max(max_end, plans[next_plan]->end_iter);
          }
          const auto loc = [&] {
            return ctx.loc_at(ref.global, d, ref.index);
          };
          if (max_end < ref.global) {
            out.push_back(make_diagnostic(
                "SDPM-E003", name(), loc(),
                str_printf("directive at global iteration %lld outside "
                           "every planned idle period of disk %d",
                           static_cast<long long>(ref.global), d)));
          }
          const ir::PowerDirective& directive =
              program.directives[static_cast<std::size_t>(ref.index)]
                  .directive;
          switch (directive.kind) {
            case ir::PowerDirective::Kind::kSpinDown:
              if (standby) {
                out.push_back(make_diagnostic(
                    "SDPM-E004", name(), loc(),
                    str_printf("spin_down on disk %d already in standby",
                               d)));
              }
              standby = true;
              break;
            case ir::PowerDirective::Kind::kSpinUp:
              if (!standby) {
                out.push_back(make_diagnostic(
                    "SDPM-E005", name(), loc(),
                    str_printf("spin_up on disk %d that is not in standby",
                               d)));
              }
              standby = false;
              break;
            case ir::PowerDirective::Kind::kSetRpm:
              if (standby) {
                out.push_back(make_diagnostic(
                    "SDPM-E006", name(), loc(),
                    str_printf("set_RPM on standby disk %d", d)));
              }
              if (directive.rpm_level < 0 || directive.rpm_level > top) {
                out.push_back(make_diagnostic(
                    "SDPM-E007", name(), loc(),
                    str_printf("set_RPM level %d outside [0, %d] on disk %d",
                               directive.rpm_level, top, d)));
              } else {
                level = directive.rpm_level;
              }
              break;
          }
        });

    // The demand wake only clears degraded state where an access follows;
    // a disk left degraded after its last access point is legal only when
    // a planned gap runs to the end of the program, which is the one kind
    // of plan that yields no access point.
    const bool idle_at_end =
        ctx.access_points_of(d).size() < ctx.plans_of(d).size();
    if ((standby || level != top) && !idle_at_end) {
      DiagLocation loc;
      loc.disk = d;
      out.push_back(make_diagnostic(
          "SDPM-E008", name(), loc,
          str_printf("disk %d left %s but is used again later", d,
                     standby ? "in standby" : "below full speed")));
    }
  }

  /// E009: no planned idle period may overlap an accessed iteration.
  void check_dap_containment(AnalysisContext& ctx,
                             std::vector<Diagnostic>& out) const {
    const trace::DiskAccessPattern* dap = ctx.dap();
    if (dap == nullptr) return;  // registry reports SDPM-E090
    for (const core::GapPlan& plan : ctx.result().plans) {
      if (plan.disk < 0 || plan.disk >= ctx.total_disks()) continue;
      if (plan.end_iter <= plan.begin_iter) continue;
      const std::int64_t accessed =
          overlap_length(dap->active_iterations(plan.disk), plan.begin_iter,
                         plan.end_iter);
      if (accessed > 0) {
        out.push_back(make_diagnostic(
            "SDPM-E009", name(), ctx.loc_at(plan.begin_iter, plan.disk),
            str_printf("planned idle period [%lld, %lld) of disk %d "
                       "overlaps %lld accessed iteration(s)",
                       static_cast<long long>(plan.begin_iter),
                       static_cast<long long>(plan.end_iter), plan.disk,
                       static_cast<long long>(accessed))));
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_wellformed_pass() {
  return std::make_unique<WellformedPass>();
}

}  // namespace sdpm::analysis
