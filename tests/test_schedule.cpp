// Power-call scheduler: Eq. 1, gap planning, pre-activation placement.
#include <gtest/gtest.h>

#include "analysis/verify_schedule.h"
#include "core/mispredict.h"
#include "core/schedule.h"
#include "ir/builder.h"
#include "trace/stall_aware.h"
#include "util/error.h"

namespace sdpm::core {
namespace {

using ir::ArrayId;
using ir::ProgramBuilder;
using ir::sym;

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

TEST(Eq1, PreactivationDistance) {
  // d = ceil(Tsu / (s + Tm)); paper Eq. 1.
  EXPECT_EQ(preactivation_distance(10'900.0, 1.0, 0.0), 10'900);
  EXPECT_EQ(preactivation_distance(10'900.0, 0.5, 0.5), 10'900);
  EXPECT_EQ(preactivation_distance(100.0, 3.0, 0.0), 34);
  EXPECT_EQ(preactivation_distance(0.0, 1.0, 0.0), 0);
}

// Two nests over a private array each; disk 1 holds only B, which is used
// in the second (long) nest — so disk 1 has a long leading idle period.
struct TwoPhase {
  ir::Program program;
  std::vector<layout::Striping> striping;

  explicit TwoPhase(double cycles_per_iter = 75'000.0) {
    // 75'000 cycles at 750 MHz = 0.1 ms per iteration.
    ProgramBuilder pb("twophase");
    const ArrayId a = pb.array("A", {64 * 8192});  // 64 blocks
    const ArrayId b = pb.array("B", {64 * 8192});
    pb.nest("phase1")
        .loop("i", 0, 64 * 8192)
        .stmt(cycles_per_iter)
        .read(a, {sym("i")})
        .done();
    pb.nest("phase2")
        .loop("i", 0, 64 * 8192)
        .stmt(cycles_per_iter)
        .read(b, {sym("i")})
        .done();
    program = pb.build();
    striping = {layout::Striping{0, 1, kib(64)},
                layout::Striping{1, 1, kib(64)}};
  }
};

SchedulerOptions drpm_options() {
  SchedulerOptions o;
  o.mode = PowerMode::kDrpm;
  o.access.cache_bytes = 0;
  return o;
}

SchedulerOptions tpm_options() {
  SchedulerOptions o = drpm_options();
  o.mode = PowerMode::kTpm;
  return o;
}

TEST(Schedule, PlansCoverEveryIdlePeriod) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), drpm_options());
  // Disk 0: trailing idle (phase2).  Disk 1: leading idle (phase1).  Plus
  // short gaps between consecutive block bursts within each phase.
  EXPECT_GE(result.plans.size(), 2u);
  for (const GapPlan& plan : result.plans) {
    EXPECT_LT(plan.begin_iter, plan.end_iter);
    EXPECT_GT(plan.estimated_ms, 0.0);
  }
}

TEST(Schedule, TpmActsOnlyAboveBreakEven) {
  // Each phase lasts 64*8192*0.1ms ≈ 52 s >> break-even.
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), tpm_options());
  // The long cross-phase gaps are acted upon...
  std::int64_t acted = 0;
  for (const GapPlan& plan : result.plans) {
    if (plan.acted) {
      ++acted;
      EXPECT_GT(plan.estimated_ms, params().break_even_time());
    } else {
      // ...and the sub-second intra-phase gaps are not.
      EXPECT_LT(plan.estimated_ms, params().break_even_time() * 1.2);
    }
  }
  EXPECT_GE(acted, 2);
}

TEST(Schedule, TpmInsertsSpinDownAndPreactivation) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), tpm_options());
  int downs = 0, ups = 0;
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinDown) ++downs;
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinUp) ++ups;
  }
  EXPECT_GE(downs, 2);
  // Disk 1's leading gap gets a pre-activation; disk 0's trailing gap has
  // no next use, so no spin-up follows it.
  EXPECT_GE(ups, 1);
  EXPECT_LT(ups, downs + 1);
}

TEST(Schedule, PreactivationLeadRespectsSpinUpTime) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const SchedulerOptions o = tpm_options();
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), o);
  const trace::Timeline nominal(tp.program);
  const trace::IterationSpace space(tp.program);
  for (std::size_t i = 0; i < result.program.directives.size(); ++i) {
    const ir::PlacedDirective& pd = result.program.directives[i];
    if (pd.directive.kind != ir::PowerDirective::Kind::kSpinUp) continue;
    // Find the plan whose gap contains this directive.
    const std::int64_t g = space.global_of(pd.point);
    for (const GapPlan& plan : result.plans) {
      if (plan.disk != pd.directive.disk || g < plan.begin_iter ||
          g >= plan.end_iter || !plan.acted) {
        continue;
      }
      const TimeMs lead =
          nominal.at_global(plan.end_iter) - nominal.at_global(g);
      const TimeMs required =
          params().wake_time(0) * (1.0 + o.safety_margin);
      const TimeMs one_iter = nominal.at_global(g + 1) - nominal.at_global(g);
      // The wake-up starts early enough (to one iteration of quantization),
      // or the whole gap was too short and the call sits at the gap start.
      EXPECT_TRUE(lead + one_iter + 1e-6 >= required ||
                  g == plan.begin_iter)
          << "lead " << lead << " required " << required;
    }
  }
}

TEST(Schedule, DrpmLevelsMatchOracleOnExactEstimates) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), drpm_options());
  // With the nominal timeline as both estimate and actual, the scheduler's
  // choices are exactly the oracle's.
  const trace::Timeline nominal(tp.program);
  const MispredictStats stats = compare_with_oracle(
      result.plans, nominal, params(), PowerMode::kDrpm);
  EXPECT_EQ(stats.mispredicted, 0);
  EXPECT_GT(stats.gaps, 0);
}

TEST(Schedule, MispredictsAppearWithNoisyActual) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), drpm_options());
  const trace::Timeline noisy = trace::Timeline::with_noise(
      tp.program, trace::CycleNoise{0.8, 123});
  const MispredictStats stats =
      compare_with_oracle(result.plans, noisy, params(), PowerMode::kDrpm);
  EXPECT_GT(stats.percent(), 0.0);
  EXPECT_LE(stats.percent(), 100.0);
}

TEST(Schedule, NoPreactivationOptionSuppressesWakeups) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  SchedulerOptions o = tpm_options();
  o.preactivate = false;
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), o);
  for (const ir::PlacedDirective& pd : result.program.directives) {
    EXPECT_NE(pd.directive.kind, ir::PowerDirective::Kind::kSpinUp);
  }
}

TEST(Schedule, CallSiteGranularitySnapsSites) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  SchedulerOptions o = tpm_options();
  o.call_site_granularity = 4'096;
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), o);
  const trace::IterationSpace space(tp.program);
  for (const ir::PlacedDirective& pd : result.program.directives) {
    const std::int64_t g = space.global_of(pd.point);
    EXPECT_EQ(g % 4'096, 0) << "directive not at a strip-mined boundary";
  }
}

TEST(Schedule, DirectivesSortedAndValid) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), drpm_options());
  const trace::IterationSpace space(tp.program);
  std::int64_t prev = -1;
  for (const ir::PlacedDirective& pd : result.program.directives) {
    const std::int64_t g = space.global_of(pd.point);
    EXPECT_GE(g, prev);
    prev = g;
  }
  result.program.validate();
  EXPECT_EQ(result.calls_inserted,
            static_cast<std::int64_t>(result.program.directives.size()));
}

TEST(Schedule, StallAwareEstimateChangesPlacement) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const trace::Timeline compute(tp.program);
  // Huge stalls at the start of phase2 push disk 1's estimated leading-gap
  // length up.
  const trace::IterationSpace space(tp.program);
  const std::int64_t phase2 = space.nest_begin(1);
  const trace::StallAwareTimeline with_stalls(compute, {phase2 - 1}, 60'000.0);

  SchedulerOptions base = drpm_options();
  const ScheduleResult plain =
      schedule_power_calls(tp.program, table, params(), base);
  SchedulerOptions stall = drpm_options();
  stall.estimate = &with_stalls;
  const ScheduleResult aware =
      schedule_power_calls(tp.program, table, params(), stall);

  // The disk-1 leading gap estimate differs by ~60 s.
  double plain_gap = 0, aware_gap = 0;
  for (const GapPlan& plan : plain.plans) {
    if (plan.disk == 1 && plan.begin_iter == 0) plain_gap = plan.estimated_ms;
  }
  for (const GapPlan& plan : aware.plans) {
    if (plan.disk == 1 && plan.begin_iter == 0) aware_gap = plan.estimated_ms;
  }
  EXPECT_NEAR(aware_gap - plain_gap, 60'000.0, 1.0);
}

TEST(Schedule, RejectsBadOptions) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  SchedulerOptions o = drpm_options();
  o.call_site_granularity = 0;
  EXPECT_THROW(schedule_power_calls(tp.program, table, params(), o),
               sdpm::Error);
  SchedulerOptions m = drpm_options();
  m.safety_margin = 1.5;
  EXPECT_THROW(schedule_power_calls(tp.program, table, params(), m),
               sdpm::Error);
}

// Errors reported by the collect-all well-formedness pass.
std::vector<analysis::Diagnostic> schedule_errors(const ScheduleResult& result,
                                                  int total_disks) {
  std::vector<analysis::Diagnostic> errors;
  for (analysis::Diagnostic& d :
       analysis::check_schedule(result, total_disks, params())) {
    if (d.severity == analysis::Severity::kError) {
      errors.push_back(std::move(d));
    }
  }
  return errors;
}

TEST(VerifySchedule, AcceptsSchedulerOutput) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  for (const PowerMode mode : {PowerMode::kTpm, PowerMode::kDrpm}) {
    SchedulerOptions o = drpm_options();
    o.mode = mode;
    const ScheduleResult result =
        schedule_power_calls(tp.program, table, params(), o);
    EXPECT_TRUE(schedule_errors(result, 2).empty());
    EXPECT_EQ(static_cast<std::int64_t>(result.program.directives.size()),
              result.calls_inserted);
  }
}

TEST(VerifySchedule, RejectsDoubleSpinDown) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), tpm_options());
  // Duplicate the first spin-down.
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinDown) {
      result.program.directives.push_back(pd);
      break;
    }
  }
  result.program.sort_directives();
  const auto errors = schedule_errors(result, 2);
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].rule, "SDPM-E004");
}

TEST(VerifySchedule, RejectsForeignDisk) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), tpm_options());
  ASSERT_FALSE(result.program.directives.empty());
  result.program.directives[0].directive.disk = 7;
  const auto errors = schedule_errors(result, 2);
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].rule, "SDPM-E002");
}

TEST(VerifySchedule, ReportsEveryViolationNotJustTheFirst) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), tpm_options());
  // Two independent corruptions: both appear in the diagnostics instead of
  // the pass stopping at the first.
  ASSERT_GE(result.program.directives.size(), 2u);
  result.program.directives[0].directive.disk = 7;
  result.program.directives[1].directive.disk = 8;
  const auto errors = schedule_errors(result, 2);
  int e002 = 0;
  for (const analysis::Diagnostic& d : errors) {
    if (d.rule == "SDPM-E002") ++e002;
  }
  EXPECT_GE(e002, 2);
}

TEST(VerifySchedule, RejectsDirectiveOutsideIdlePeriod) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result =
      schedule_power_calls(tp.program, table, params(), drpm_options());
  ASSERT_FALSE(result.plans.empty());
  // Shrink every plan to nothing: all directives become orphans.
  for (GapPlan& plan : result.plans) {
    plan.begin_iter = 0;
    plan.end_iter = 0;
  }
  bool outside = false;
  for (const auto& d : schedule_errors(result, 2)) {
    if (d.rule == "SDPM-E003") outside = true;
  }
  EXPECT_TRUE(outside);
}

}  // namespace
}  // namespace sdpm::core
