// Redundancy / conflict pass.
//
//   SDPM-W020  set_RPM to the level the disk is already at (no-op call
//              that still pays Tm)
//   SDPM-W021  a degrade directive overridden by another degrade in the
//              same idle period, with no use and no restore between — the
//              first call was wasted
//   SDPM-E022  TPM (spin_down/spin_up) and DRPM (set_RPM) directives mixed
//              within one idle period of one disk
//
// No-op set_RPM calls (W020) carry an SDPM-F003 fix-it that simply
// removes the directive.
#include <cstdint>
#include <vector>

#include "analysis/pass.h"
#include "analysis/registry.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

class RedundancyPass final : public Pass {
 public:
  const char* name() const override { return "redundancy"; }

  void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) override {
    const ir::Program& program = ctx.program();
    const int top = ctx.top_level();

    for (int disk = 0; disk < ctx.total_disks(); ++disk) {
      const auto& plans = ctx.plans_of(disk);
      const auto& dirs = ctx.directives_of(disk);

      // Demand-wake-aware level/standby tracking, as in the wellformed
      // pass's merge walk.
      bool standby = false;
      int level = top;
      std::size_t di = 0;
      for (std::size_t pi = 0; pi < plans.size(); ++pi) {
        const core::GapPlan& plan = *plans[pi];
        // Accesses before this gap demand-wake the disk.
        while (di < dirs.size() && dirs[di].global < plan.begin_iter) {
          ++di;  // outside every gap: wellformed reports E003
        }
        if (pi > 0 && plans[pi - 1]->end_iter < plan.begin_iter) {
          standby = false;
          level = top;
        }

        bool saw_tpm = false;
        bool saw_drpm = false;
        int pending_degrade = -1;  // directive index of an unused degrade
        std::size_t first_in_gap = di;
        while (di < dirs.size() && dirs[di].global <= plan.end_iter) {
          const auto& ref = dirs[di];
          const ir::PowerDirective& d =
              program.directives[static_cast<std::size_t>(ref.index)]
                  .directive;
          switch (d.kind) {
            case ir::PowerDirective::Kind::kSpinDown:
              if (pending_degrade >= 0) {
                report_overridden(ctx, out, pending_degrade, disk);
              }
              pending_degrade = ref.index;
              standby = true;
              saw_tpm = true;
              break;
            case ir::PowerDirective::Kind::kSpinUp:
              pending_degrade = -1;
              standby = false;
              level = top;
              saw_tpm = true;
              break;
            case ir::PowerDirective::Kind::kSetRpm: {
              const int target = d.rpm_level;
              saw_drpm = true;
              if (target == level && !standby) {
                Diagnostic diag = make_diagnostic(
                    "SDPM-W020", name(),
                    ctx.loc_at(ref.global, disk, ref.index),
                    str_printf("set_RPM(%d) on disk %d is a no-op: the "
                               "disk is already at level %d",
                               target, disk, level));
                core::ScheduleEdit edit;
                edit.kind = core::ScheduleEdit::Kind::kRemoveDirective;
                edit.directive_index = ref.index;
                diag.fixits.push_back(FixIt{
                    "SDPM-F003", "remove the no-op set_RPM call", {edit}});
                out.push_back(std::move(diag));
              }
              if (target < level) {
                if (pending_degrade >= 0) {
                  report_overridden(ctx, out, pending_degrade, disk);
                }
                pending_degrade = ref.index;
              } else if (target >= top) {
                pending_degrade = -1;
              }
              if (target >= 0 && target <= top) level = target;
              standby = false;
              break;
            }
          }
          ++di;
        }
        if (saw_tpm && saw_drpm && di > first_in_gap) {
          const auto& first = dirs[first_in_gap];
          out.push_back(make_diagnostic(
              "SDPM-E022", name(),
              ctx.loc_at(first.global, disk, first.index),
              str_printf("idle period [%lld, %lld) of disk %d mixes TPM "
                         "and DRPM directives",
                         static_cast<long long>(plan.begin_iter),
                         static_cast<long long>(plan.end_iter), disk)));
        }
        // The access ending this gap wakes the disk on demand.
        if (plan.end_iter < ctx.space().total()) {
          standby = false;
          level = top;
        }
      }
    }
  }

 private:
  void report_overridden(AnalysisContext& ctx, std::vector<Diagnostic>& out,
                         int directive, int disk) {
    const ir::PlacedDirective& pd =
        ctx.program().directives[static_cast<std::size_t>(directive)];
    const std::int64_t g = ctx.space().global_of(pd.point);
    out.push_back(make_diagnostic(
        "SDPM-W021", name(), ctx.loc_at(g, disk, directive),
        str_printf("%s on disk %d is overridden by a later degrade before "
                   "the disk is used",
                   ir::to_string(pd.directive.kind), disk)));
  }
};

}  // namespace

std::unique_ptr<Pass> make_redundancy_pass() {
  return std::make_unique<RedundancyPass>();
}

}  // namespace sdpm::analysis
