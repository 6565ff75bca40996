// DRPM window-misfit pass.
//
//   SDPM-W051  an acted DRPM plan whose chosen level's round trip
//              (top -> level -> top) does not fit the estimated gap
//   SDPM-E050  an active interval begins with the disk at a level too slow
//              to keep up with the nest's request rate (queue grows without
//              bound: a performance bug, not just a latency hit)
//   SDPM-W052  an active interval begins with the disk below full speed
//              (serviceable, but every access pays the slower rate)
//
// The request rate is approximated per (nest, disk): bytes demanded per
// iteration across the nest's references striped onto the disk, and the
// smallest block size among those arrays as the request unit — the most
// demanding stream.  This mirrors the generator's access model closely
// enough for a static keep-up bound.
//
// W051 carries an SDPM-F004 fix-it that retargets the gap's degrade
// directive (and the plan) to the oracle-optimal level for the estimated
// idle length.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/pass.h"
#include "analysis/registry.h"
#include "policy/oracle.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

class MisfitPass final : public Pass {
 public:
  const char* name() const override { return "misfit"; }

  void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) override {
    const disk::DiskParameters& params = ctx.params();
    const int top = ctx.top_level();

    for (int disk = 0; disk < ctx.total_disks(); ++disk) {
      // W051: round-trip feasibility of each acted DRPM choice.
      for (const core::GapPlan* plan : ctx.plans_of(disk)) {
        if (!plan->acted || plan->level < 0 || plan->level >= top) continue;
        if (!policy::drpm_level_feasible(plan->estimated_ms, plan->level,
                                         params)) {
          Diagnostic diag = make_diagnostic(
              "SDPM-W051", name(), ctx.loc_at(plan->begin_iter, disk),
              str_printf("RPM level %d round trip does not fit the "
                         "estimated %s idle period of disk %d",
                         plan->level,
                         fmt_time_ms(plan->estimated_ms).c_str(), disk));
          attach_f004(ctx, *plan, disk, diag);
          out.push_back(std::move(diag));
        }
      }
      walk_active_starts(ctx, disk, out);
    }
  }

 private:
  /// SDPM-F004: retarget the plan's degrade directive to the level the
  /// oracle deems optimal for the estimated gap length, and record the
  /// new level on the plan.  When the optimal level is the top level the
  /// retargeted call becomes a no-op and the redundancy pass's SDPM-F003
  /// removes it on the next repair round.
  static void attach_f004(AnalysisContext& ctx, const core::GapPlan& plan,
                          int disk, Diagnostic& diag) {
    const int best =
        policy::optimal_rpm_level(plan.estimated_ms, ctx.params());
    if (best == plan.level) return;
    const ir::Program& program = ctx.program();
    int degrade_index = -1;
    for (const auto& ref :
         ctx.directives_in(disk, plan.begin_iter, plan.end_iter)) {
      const ir::PowerDirective& d =
          program.directives[static_cast<std::size_t>(ref.index)].directive;
      if (d.kind == ir::PowerDirective::Kind::kSetRpm &&
          d.rpm_level == plan.level) {
        degrade_index = ref.index;
        break;
      }
    }
    if (degrade_index < 0) return;
    std::vector<core::ScheduleEdit> edits;
    core::ScheduleEdit retarget;
    retarget.kind = core::ScheduleEdit::Kind::kRetargetLevel;
    retarget.directive_index = degrade_index;
    retarget.level = best;
    edits.push_back(retarget);
    core::ScheduleEdit set_level;
    set_level.kind = core::ScheduleEdit::Kind::kSetPlanLevel;
    set_level.plan_index = static_cast<int>(&plan - ctx.result().plans.data());
    set_level.level = best;
    edits.push_back(set_level);
    diag.fixits.push_back(FixIt{
        "SDPM-F004",
        str_printf("retarget the degrade to RPM level %d", best),
        std::move(edits)});
  }

  /// Track the level each active interval starts at, honouring in-flight
  /// restores (a restore whose transition completes by the access leaves
  /// the disk at its target level).
  void walk_active_starts(AnalysisContext& ctx, int disk,
                          std::vector<Diagnostic>& out) {
    const ir::Program& program = ctx.program();
    const disk::DiskParameters& params = ctx.params();
    const int top = ctx.top_level();

    bool standby = false;
    int level = top;
    TimeMs ready = 0;     // completion time of the level's transition
    int ready_level = top;

    auto handle_access = [&](const AnalysisContext::AccessPoint& access) {
      const std::int64_t a = access.global;
      const TimeMs t0 = ctx.at(a);
      int effective = level;
      if (ready > t0 + ctx.iter_ms(a) + 1e-6) {
        effective = std::min(level, ready_level);  // transition unfinished
      }
      if (standby) {
        // Demand spin-up: the preactivation pass reports it; the wake
        // restores full speed.
        standby = false;
        level = top;
        ready = 0;
        return;
      }
      if (effective >= top) {
        ready = 0;
        return;
      }
      const int needed = required_level(ctx, a, disk);
      if (effective < needed) {
        out.push_back(make_diagnostic(
            "SDPM-E050", name(), ctx.loc_at(a, disk),
            str_printf("disk %d enters an active interval at RPM level %d "
                       "but needs level %d to keep up with the request "
                       "rate",
                       disk, effective, needed)));
      } else {
        out.push_back(make_diagnostic(
            "SDPM-W052", name(), ctx.loc_at(a, disk),
            str_printf("disk %d enters an active interval at RPM level %d "
                       "(below full speed %d)",
                       disk, effective, top)));
      }
      ready = 0;
    };

    auto handle_directive = [&](const AnalysisContext::DirRef& ref) {
      const ir::PowerDirective& d =
          program.directives[static_cast<std::size_t>(ref.index)].directive;
      switch (d.kind) {
        case ir::PowerDirective::Kind::kSpinDown:
          standby = true;
          break;
        case ir::PowerDirective::Kind::kSpinUp:
          standby = false;
          level = top;
          ready = 0;
          break;
        case ir::PowerDirective::Kind::kSetRpm: {
          const int target = d.rpm_level;
          if (standby || target < 0 || target > top) break;
          if (target > level) {
            ready_level = level;
            ready = ctx.at(ref.global) + ctx.tm() +
                    params.rpm_transition_time(level, target);
          } else {
            ready = 0;
          }
          level = target;
          break;
        }
      }
    };

    ctx.merge_walk(disk, handle_access, handle_directive);
  }

  /// Minimum serviceable level for the nest containing global iteration
  /// `a`, from the nest's per-iteration byte demand on `disk`.
  int required_level(AnalysisContext& ctx, std::int64_t a, int disk) {
    const ir::Program& program = ctx.program();
    const ir::IterationPoint point = ctx.space().point_of(a);
    if (point.nest_index < 0 ||
        point.nest_index >= static_cast<int>(program.nests.size())) {
      return 0;
    }
    const ir::LoopNest& nest =
        program.nests[static_cast<std::size_t>(point.nest_index)];

    double bytes_per_iter = 0;
    Bytes min_block = 0;
    for (const ir::Statement& stmt : nest.body) {
      for (const ir::ArrayRef& ref : stmt.refs) {
        if (ref.array < 0 ||
            ref.array >= static_cast<ir::ArrayId>(program.arrays.size())) {
          continue;
        }
        const std::vector<int> disks = ctx.layout().disks_of(ref.array);
        if (std::find(disks.begin(), disks.end(), disk) == disks.end()) {
          continue;
        }
        const ir::Array& array = program.array(ref.array);
        bytes_per_iter += static_cast<double>(array.element_size) /
                          static_cast<double>(disks.size());
        const Bytes block =
            trace::block_size_for(ctx.layout(), ref.array,
                                  ctx.options().access);
        if (block > 0 && (min_block == 0 || block < min_block)) {
          min_block = block;
        }
      }
    }
    if (bytes_per_iter <= 0 || min_block <= 0) return 0;
    const TimeMs iter = ctx.iter_ms(a);
    if (iter <= 0) return 0;
    const TimeMs interarrival =
        static_cast<double>(min_block) / bytes_per_iter * iter;
    return policy::min_serviceable_level(min_block, interarrival,
                                         ctx.params());
  }
};

}  // namespace

std::unique_ptr<Pass> make_misfit_pass() {
  return std::make_unique<MisfitPass>();
}

}  // namespace sdpm::analysis
