// Break-even pass (paper §2/§3 economics).
//
//   SDPM-E030  a spin_down whose remaining gap (after the call site) is
//              shorter than the disk's break-even time — the transition
//              energy cannot be recovered, the call wastes energy
//   SDPM-W031  an idle period the scheduler's own profitability rule says
//              is exploitable, but no directive acts on it
//
// The remaining gap is derived from the plan's *estimated* length scaled
// by the time fraction after the directive, so the check replicates the
// scheduler's decision basis rather than second-guessing its estimator.
//
// E030 carries an SDPM-F002 fix-it: when the whole gap clears break-even
// the spin_down is hoisted to the gap's first iteration; otherwise the
// spin_down and its paired wake-up are removed and the plan un-acted.
#include <cstdint>
#include <vector>

#include "analysis/pass.h"
#include "analysis/registry.h"
#include "policy/oracle.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

class BreakEvenPass final : public Pass {
 public:
  const char* name() const override { return "break-even"; }

  void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) override {
    const ir::Program& program = ctx.program();
    const disk::DiskParameters& params = ctx.params();
    const TimeMs break_even = params.break_even_time();

    for (int disk = 0; disk < ctx.total_disks(); ++disk) {
      for (const core::GapPlan* plan : ctx.plans_of(disk)) {
        // E030: every spin_down inside this gap must leave at least the
        // break-even time before the gap's next access.
        for (const AnalysisContext::DirRef& ref :
             ctx.directives_in(disk, plan->begin_iter, plan->end_iter)) {
          const ir::PowerDirective& d =
              program.directives[static_cast<std::size_t>(ref.index)]
                  .directive;
          if (d.kind != ir::PowerDirective::Kind::kSpinDown) continue;
          const TimeMs remaining = remaining_estimate(ctx, *plan, ref.global);
          if (remaining + 1e-9 < break_even) {
            Diagnostic diag = make_diagnostic(
                "SDPM-E030", name(), ctx.loc_at(ref.global, disk, ref.index),
                str_printf("spin_down on disk %d leaves %s of the gap, "
                           "below the %s break-even time",
                           disk, fmt_time_ms(remaining).c_str(),
                           fmt_time_ms(break_even).c_str()));
            attach_f002(ctx, *plan, ref, disk, break_even, diag);
            out.push_back(std::move(diag));
          }
        }

        // W031: the scheduler's own profitability rule, in the mode the
        // plan was made in, un-acted.
        if (plan->acted) continue;
        if (plan->end_iter <= plan->begin_iter) continue;
        const TimeMs discounted =
            plan->estimated_ms * (1.0 - core::kSafetyMargin);
        if (plan->mode == core::PowerMode::kTpm) {
          if (policy::spin_down_beneficial(discounted, params)) {
            out.push_back(make_diagnostic(
                "SDPM-W031", name(), ctx.loc_at(plan->begin_iter, disk),
                str_printf("idle period of disk %d (estimated %s) exceeds "
                           "the break-even time but no spin_down acts on it",
                           disk, fmt_time_ms(plan->estimated_ms).c_str())));
          }
        } else {
          const int best =
              policy::optimal_rpm_level(plan->estimated_ms, params);
          if (best < ctx.top_level()) {
            out.push_back(make_diagnostic(
                "SDPM-W031", name(), ctx.loc_at(plan->begin_iter, disk),
                str_printf("idle period of disk %d (estimated %s) profits "
                           "from RPM level %d but no set_RPM acts on it",
                           disk, fmt_time_ms(plan->estimated_ms).c_str(),
                           best)));
          }
        }
      }
    }
  }

 private:
  /// SDPM-F002: repair a sub-break-even spin_down.  If the whole gap is
  /// profitable the call is merely late — hoist it to the gap begin.
  /// Otherwise remove it together with its paired wake-up and mark the
  /// plan un-acted so later passes stop expecting directives in the gap.
  static void attach_f002(AnalysisContext& ctx, const core::GapPlan& plan,
                          const AnalysisContext::DirRef& ref, int disk,
                          TimeMs break_even, Diagnostic& diag) {
    std::vector<core::ScheduleEdit> edits;
    if (plan.estimated_ms >= break_even && ref.global > plan.begin_iter) {
      core::ScheduleEdit move;
      move.kind = core::ScheduleEdit::Kind::kMoveDirective;
      move.directive_index = ref.index;
      move.point = ctx.space().point_of(plan.begin_iter);
      edits.push_back(move);
      diag.fixits.push_back(FixIt{
          "SDPM-F002",
          "hoist the spin_down to the start of the gap",
          std::move(edits)});
      return;
    }
    core::ScheduleEdit remove_down;
    remove_down.kind = core::ScheduleEdit::Kind::kRemoveDirective;
    remove_down.directive_index = ref.index;
    edits.push_back(remove_down);
    // The paired wake-up: the first spin_up in the same gap after the
    // spin_down (the scheduler and the mutation engine both emit the
    // pair in that shape).
    const ir::Program& program = ctx.program();
    for (const auto& other :
         ctx.directives_in(disk, ref.global, plan.end_iter)) {
      if (other.index == ref.index) continue;
      const ir::PowerDirective& od =
          program.directives[static_cast<std::size_t>(other.index)].directive;
      if (od.kind != ir::PowerDirective::Kind::kSpinUp) continue;
      core::ScheduleEdit remove_up;
      remove_up.kind = core::ScheduleEdit::Kind::kRemoveDirective;
      remove_up.directive_index = other.index;
      edits.push_back(remove_up);
      break;
    }
    core::ScheduleEdit unact;
    unact.kind = core::ScheduleEdit::Kind::kSetPlanActed;
    unact.plan_index = static_cast<int>(&plan - ctx.result().plans.data());
    unact.acted = false;
    edits.push_back(unact);
    diag.fixits.push_back(FixIt{
        "SDPM-F002",
        "remove the unprofitable spin_down/spin_up pair",
        std::move(edits)});
  }

  /// Estimated idle time left after a directive at `g`: the plan estimate
  /// scaled by the timeline fraction of the gap after `g`.
  static TimeMs remaining_estimate(const AnalysisContext& ctx,
                                   const core::GapPlan& plan,
                                   std::int64_t g) {
    if (g <= plan.begin_iter) return plan.estimated_ms;
    if (g >= plan.end_iter) return 0;
    const TimeMs whole = ctx.at(plan.end_iter) - ctx.at(plan.begin_iter);
    if (whole <= 0) return plan.estimated_ms;
    const TimeMs after = ctx.at(plan.end_iter) - ctx.at(g);
    return plan.estimated_ms * (after / whole);
  }
};

}  // namespace

std::unique_ptr<Pass> make_break_even_pass() {
  return std::make_unique<BreakEvenPass>();
}

}  // namespace sdpm::analysis
