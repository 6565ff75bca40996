// Pre-activation pass (paper Eq. 1 economics, statically).
//
// Walks each disk's directives against the access points implied by the
// gap plans, tracking the in-flight wake-up transition the way the
// simulator's PreactivationAccountant classifies the real execution:
//
//   SDPM-E040  the pre-activation completes after the next access starts
//              (late: the application stalls on the wake-up)
//   SDPM-W041  the disk is still in standby when the next access arrives
//              and no wake-up is in flight (predicted demand spin-up)
//   SDPM-W042  a pre-activation whose disk is degraded again, re-awakened,
//              or never used before the program ends (wasted call)
//   SDPM-N043  the pre-activation completes earlier than one whole
//              transition before the access (overly conservative lead)
//
// Late pre-activations (E040) carry an SDPM-F001 fix-it that hoists the
// directive to the latest iteration whose wake-up still completes by the
// access; predicted demand spin-ups (W041) carry an SDPM-F005 fix-it that
// inserts the missing wake-up at that same latest-feasible point.
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/pass.h"
#include "analysis/registry.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

class PreactivationPass final : public Pass {
 public:
  const char* name() const override { return "preactivation"; }

  void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) override {
    for (int disk = 0; disk < ctx.total_disks(); ++disk) {
      walk_disk(ctx, disk, out);
    }
  }

 private:
  struct Pending {
    int directive = -1;
    std::int64_t global = 0;
    TimeMs ready = 0;     ///< when the transition completes
    TimeMs duration = 0;  ///< transition time (Tsu or RPM swing)
  };

  void walk_disk(AnalysisContext& ctx, int disk,
                 std::vector<Diagnostic>& out) {
    const ir::Program& program = ctx.program();
    const disk::DiskParameters& params = ctx.params();
    const int top = ctx.top_level();

    bool standby = false;
    int level = top;
    std::optional<Pending> pending;

    // Latest global iteration in [`lo`, `a`] whose power call (issued at
    // at(g) + Tm) still completes a `duration`-long transition by at(a);
    // -1 when even `lo` is too late.  at() is monotone, so binary search.
    auto latest_feasible = [&](std::int64_t lo, std::int64_t a,
                               TimeMs duration) -> std::int64_t {
      const TimeMs deadline = ctx.at(a) + 1e-9;
      std::int64_t best = -1;
      std::int64_t lo_g = lo;
      std::int64_t hi_g = a;
      while (lo_g <= hi_g) {
        const std::int64_t mid = lo_g + (hi_g - lo_g) / 2;
        if (ctx.at(mid) + ctx.tm() + duration <= deadline) {
          best = mid;
          lo_g = mid + 1;
        } else {
          hi_g = mid - 1;
        }
      }
      return best;
    };

    // Hoists must stay inside the planned idle period that the access
    // ends, so each search starts at the access point's gap_begin.
    auto handle_access = [&](const AnalysisContext::AccessPoint& access) {
      const std::int64_t a = access.global;
      const TimeMs t0 = ctx.at(a);
      if (pending.has_value()) {
        const TimeMs slack = ctx.iter_ms(a) + 1e-6;
        if (pending->ready > t0 + slack) {
          Diagnostic diag = make_diagnostic(
              "SDPM-E040", name(),
              ctx.loc_at(pending->global, disk, pending->directive),
              str_printf("pre-activation of disk %d completes %s after "
                         "its next access (global iteration %lld)",
                         disk,
                         fmt_time_ms(pending->ready - t0).c_str(),
                         static_cast<long long>(a)));
          const std::int64_t target =
              latest_feasible(access.gap_begin, a, pending->duration);
          if (target >= 0 && target != pending->global) {
            core::ScheduleEdit edit;
            edit.kind = core::ScheduleEdit::Kind::kMoveDirective;
            edit.directive_index = pending->directive;
            edit.point = ctx.space().point_of(target);
            diag.fixits.push_back(FixIt{
                "SDPM-F001",
                "hoist the pre-activation so the wake-up completes "
                "before the access",
                {edit}});
          }
          out.push_back(std::move(diag));
        } else if (t0 - pending->ready > pending->duration) {
          out.push_back(make_diagnostic(
              "SDPM-N043", name(),
              ctx.loc_at(pending->global, disk, pending->directive),
              str_printf("pre-activation of disk %d completes %s before "
                         "its next access; the lead exceeds a whole "
                         "transition",
                         disk,
                         fmt_time_ms(t0 - pending->ready).c_str())));
        }
        pending.reset();
        standby = false;
      } else if (standby) {
        Diagnostic diag = make_diagnostic(
            "SDPM-W041", name(), ctx.loc_at(a, disk),
            str_printf("disk %d is in standby at its next access (global "
                       "iteration %lld): demand spin-up predicted",
                       disk, static_cast<long long>(a)));
        const std::int64_t target =
            latest_feasible(access.gap_begin, a,
                            params.wake_time(params.default_park()));
        if (target >= 0) {
          core::ScheduleEdit edit;
          edit.kind = core::ScheduleEdit::Kind::kInsertDirective;
          edit.point = ctx.space().point_of(target);
          edit.directive = ir::PowerDirective{
              ir::PowerDirective::Kind::kSpinUp, disk, 0};
          diag.fixits.push_back(FixIt{
              "SDPM-F005",
              "insert the missing wake-up before the access",
              {edit}});
        }
        out.push_back(std::move(diag));
        standby = false;
        level = top;
      }
    };

    auto waste = [&](const char* why) {
      out.push_back(make_diagnostic(
          "SDPM-W042", name(),
          ctx.loc_at(pending->global, disk, pending->directive),
          str_printf("pre-activation of disk %d is wasted: %s", disk, why)));
      pending.reset();
    };

    auto handle_directive = [&](const AnalysisContext::DirRef& ref) {
      const ir::PowerDirective& d =
          program.directives[static_cast<std::size_t>(ref.index)].directive;
      const TimeMs issue = ctx.at(ref.global) + ctx.tm();
      switch (d.kind) {
        case ir::PowerDirective::Kind::kSpinDown:
          if (pending.has_value()) {
            waste("the disk is degraded again before its next use");
          }
          standby = true;
          break;
        case ir::PowerDirective::Kind::kSpinUp:
          if (pending.has_value()) {
            waste("a second wake-up replaces it before any use");
          }
          if (standby) {
            const TimeMs wake = params.wake_time(params.default_park());
            pending = Pending{ref.index, ref.global, issue + wake, wake};
            standby = false;
            level = top;
          }
          break;
        case ir::PowerDirective::Kind::kSetRpm: {
          const int target = d.rpm_level;
          if (standby || target < 0 || target > top) break;  // wellformed
          if (target < level) {
            if (pending.has_value()) {
              waste("the disk is degraded again before its next use");
            }
            level = target;
          } else if (target > level) {
            if (pending.has_value()) {
              waste("a second wake-up replaces it before any use");
            }
            const TimeMs duration =
                params.rpm_transition_time(level, target);
            pending = Pending{ref.index, ref.global, issue + duration,
                              duration};
            level = target;
          }
          break;
        }
      }
    };

    ctx.merge_walk(disk, handle_access, handle_directive);
    if (pending.has_value()) {
      waste("the program ends before the disk is used");
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_preactivation_pass() {
  return std::make_unique<PreactivationPass>();
}

}  // namespace sdpm::analysis
