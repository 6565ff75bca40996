// Static schedule analyzer: diagnostics framework, rule catalog, renderers,
// baseline suppression, and one firing test per rule over seeded mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/mutate.h"
#include "analysis/registry.h"
#include "api/job_spec.h"
#include "api/session.h"
#include "core/schedule.h"
#include "ir/builder.h"
#include "ir/dependence.h"
#include "layout/layout_table.h"
#include "policy/oracle.h"
#include "trace/iteration_space.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::analysis {
namespace {

using core::GapPlan;
using core::PowerMode;
using core::SchedulerOptions;
using core::ScheduleResult;
using ir::ArrayId;
using ir::ProgramBuilder;
using ir::sym;

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

// Same fixture as test_schedule.cpp: two nests over private arrays, so each
// disk has one ~52 s cross-phase gap the scheduler acts on.
struct TwoPhase {
  ir::Program program;
  std::vector<layout::Striping> striping;

  explicit TwoPhase(double cycles_per_iter = 75'000.0) {
    ProgramBuilder pb("twophase");
    const ArrayId a = pb.array("A", {64 * 8192});
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

SchedulerOptions scheduler_options(PowerMode mode) {
  SchedulerOptions o;
  o.mode = mode;
  o.access.cache_bytes = 0;
  return o;
}

AnalyzeOptions analyze_options() {
  AnalyzeOptions o;
  o.access.cache_bytes = 0;  // must match the scheduler's access model
  return o;
}

ScheduleResult scheduled(const TwoPhase& tp, const layout::LayoutTable& table,
                         PowerMode mode) {
  return core::schedule_power_calls(tp.program, table, params(),
                                    scheduler_options(mode));
}

int count_rule(const AnalysisReport& report, std::string_view rule) {
  int n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Rule catalog and severity mapping

TEST(Catalog, SeverityDerivedFromRuleLetter) {
  EXPECT_EQ(severity_of_rule("SDPM-E030"), Severity::kError);
  EXPECT_EQ(severity_of_rule("SDPM-W041"), Severity::kWarning);
  EXPECT_EQ(severity_of_rule("SDPM-N043"), Severity::kNote);
  EXPECT_STREQ(to_string(Severity::kError), "error");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kNote), "note");
}

TEST(Catalog, EntriesAreConsistentAndUnique) {
  const auto catalog = rule_catalog();
  EXPECT_GE(catalog.size(), 28u);
  std::vector<int> numbers;
  for (const RuleInfo& rule : catalog) {
    EXPECT_EQ(severity_of_rule(rule.id), rule.severity) << rule.id;
    EXPECT_NE(std::string(rule.pass), "") << rule.id;
    EXPECT_NE(std::string(rule.summary), "") << rule.id;
    // "SDPM-X###": the numeric part orders the catalog and is unique.
    numbers.push_back(std::stoi(std::string(rule.id).substr(6)));
  }
  EXPECT_TRUE(std::is_sorted(numbers.begin(), numbers.end()));
  EXPECT_EQ(std::adjacent_find(numbers.begin(), numbers.end()),
            numbers.end())
      << "duplicate rule number";
}

TEST(Diagnostic, FingerprintIgnoresDirectiveIndex) {
  const Diagnostic a = make_diagnostic("SDPM-E040", "preactivation",
                                       DiagLocation{1, 0, 42, 7}, "m");
  const Diagnostic b = make_diagnostic("SDPM-E040", "preactivation",
                                       DiagLocation{1, 0, 42, 9}, "m");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), "SDPM-E040|d1|n0|i42");
}

// ---------------------------------------------------------------------------
// Renderers: golden text and byte-stable JSON

AnalysisReport golden_report() {
  AnalysisReport report;
  report.passes_run = {"wellformed", "break-even"};
  report.directives_checked = 2;
  report.diagnostics.push_back(
      make_diagnostic("SDPM-E030", "break-even", DiagLocation{0, 1, 42, 3},
                      "spin_down leaves 1.0 ms of the gap"));
  report.diagnostics.push_back(
      make_diagnostic("SDPM-W081", "coverage", DiagLocation{2, -1, -1, -1},
                      "disk 2 holds data but is never accessed"));
  report.diagnostics.push_back(make_diagnostic(
      "SDPM-N072", "dependence", DiagLocation{}, "legality \"unproven\""));
  report.sort();
  return report;
}

TEST(Render, GoldenText) {
  const AnalysisReport report = golden_report();
  EXPECT_EQ(render_text(report),
            "SDPM-N072 note [dependence] <program>: legality \"unproven\"\n"
            "SDPM-E030 error [break-even] disk 0 nest 1 iter 42 directive 3: "
            "spin_down leaves 1.0 ms of the gap\n"
            "SDPM-W081 warning [coverage] disk 2: disk 2 holds data but is "
            "never accessed\n"
            "analyze: 1 error(s), 1 warning(s), 1 note(s); 2 directive(s) "
            "checked; 0 suppressed\n");
}

TEST(Render, GoldenJson) {
  const AnalysisReport report = golden_report();
  const std::string json = render_json(report);
  EXPECT_EQ(
      json,
      "{\"version\":2,\"tool\":\"sdpm-analyze\","
      "\"summary\":{\"directives\":2,\"errors\":1,\"warnings\":1,"
      "\"notes\":1,\"suppressed\":0,\"fixits\":0},"
      "\"passes\":[\"break-even\",\"wellformed\"],\"diagnostics\":[\n"
      " {\"rule\":\"SDPM-N072\",\"severity\":\"note\","
      "\"pass\":\"dependence\",\"disk\":-1,\"nest\":-1,\"iteration\":-1,"
      "\"directive\":-1,\"message\":\"legality \\\"unproven\\\"\"},\n"
      " {\"rule\":\"SDPM-E030\",\"severity\":\"error\","
      "\"pass\":\"break-even\",\"disk\":0,\"nest\":1,\"iteration\":42,"
      "\"directive\":3,\"message\":\"spin_down leaves 1.0 ms of the "
      "gap\"},\n"
      " {\"rule\":\"SDPM-W081\",\"severity\":\"warning\","
      "\"pass\":\"coverage\",\"disk\":2,\"nest\":-1,\"iteration\":-1,"
      "\"directive\":-1,\"message\":\"disk 2 holds data but is never "
      "accessed\"}\n"
      "]}\n");
  // Rendering is a pure function of the report: byte-stable across calls.
  EXPECT_EQ(json, render_json(report));
}

TEST(Render, EmptyReportJson) {
  AnalysisReport report;
  report.passes_run = {"wellformed"};
  EXPECT_EQ(render_json(report),
            "{\"version\":2,\"tool\":\"sdpm-analyze\","
            "\"summary\":{\"directives\":0,\"errors\":0,\"warnings\":0,"
            "\"notes\":0,\"suppressed\":0,\"fixits\":0},"
            "\"passes\":[\"wellformed\"],\"diagnostics\":[]}\n");
}

TEST(Render, JsonIsStableAcrossPassRegistrationOrder) {
  // The "passes" array renders sorted, so two registries that run the
  // same passes in different orders produce byte-identical output.
  AnalysisReport a = golden_report();
  AnalysisReport b = golden_report();
  b.passes_run = {"break-even", "wellformed"};
  EXPECT_EQ(render_json(a), render_json(b));
}

TEST(Render, GoldenFixitJson) {
  AnalysisReport report;
  report.passes_run = {"redundancy"};
  report.directives_checked = 1;
  Diagnostic diag = make_diagnostic("SDPM-W020", "redundancy",
                                    DiagLocation{0, 0, 7, 2},
                                    "set_RPM(10) is a no-op");
  core::ScheduleEdit edit;
  edit.kind = core::ScheduleEdit::Kind::kRemoveDirective;
  edit.directive_index = 2;
  diag.fixits.push_back(FixIt{"SDPM-F003", "remove the call", {edit}});
  report.diagnostics.push_back(std::move(diag));
  report.sort();
  EXPECT_EQ(
      render_json(report),
      "{\"version\":2,\"tool\":\"sdpm-analyze\","
      "\"summary\":{\"directives\":1,\"errors\":0,\"warnings\":1,"
      "\"notes\":0,\"suppressed\":0,\"fixits\":1},"
      "\"passes\":[\"redundancy\"],\"diagnostics\":[\n"
      " {\"rule\":\"SDPM-W020\",\"severity\":\"warning\","
      "\"pass\":\"redundancy\",\"disk\":0,\"nest\":0,\"iteration\":7,"
      "\"directive\":2,\"message\":\"set_RPM(10) is a no-op\","
      "\"fixits\":[{\"id\":\"SDPM-F003\",\"title\":\"remove the call\","
      "\"edits\":[{\"kind\":\"remove_directive\",\"directive\":2}]}]}\n"
      "]}\n");
}

// ---------------------------------------------------------------------------
// Baseline suppression

TEST(Baseline, RoundTripSuppressesEverything) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  std::vector<layout::Striping> striping = tp.striping;
  apply_mutation(Mutation::kLatePreactivation, result, striping, params());
  AnalysisReport before = analyze(result, table, params(), analyze_options());
  ASSERT_GT(before.diagnostics.size(), 0u);

  std::istringstream in(to_baseline(before));
  const Baseline baseline = Baseline::parse(in);
  AnalysisReport after = analyze(result, table, params(), analyze_options());
  const int total = static_cast<int>(after.diagnostics.size());
  apply_baseline(after, baseline);
  EXPECT_TRUE(after.diagnostics.empty());
  EXPECT_EQ(after.suppressed, total);
}

TEST(Baseline, ParseIgnoresCommentsAndBlanks) {
  std::istringstream in(
      "# comment\n\n  SDPM-E040|d1|n0|i42  \nSDPM-E040|d1|n0|i42\r\n");
  const Baseline baseline = Baseline::parse(in);
  EXPECT_EQ(baseline.size(), 1u);
  EXPECT_TRUE(baseline.contains("SDPM-E040|d1|n0|i42"));
  EXPECT_FALSE(baseline.contains("SDPM-E040|d1|n0|i43"));
}

// ---------------------------------------------------------------------------
// The analyzer accepts the scheduler's own output

TEST(Analyze, CleanOnSchedulerOutput) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  for (const PowerMode mode : {PowerMode::kTpm, PowerMode::kDrpm}) {
    const ScheduleResult result = scheduled(tp, table, mode);
    const AnalysisReport report =
        analyze(result, table, params(), analyze_options());
    EXPECT_TRUE(report.diagnostics.empty())
        << render_text(report);
    EXPECT_EQ(report.passes_run.size(), 8u);
    EXPECT_EQ(report.directives_checked, result.calls_inserted);
    EXPECT_FALSE(report.worst().has_value());
  }
}

// The compiler's own default schedules are clean on every device: no
// error and no warning for any benchmark in either mode.
TEST(Analyze, SchedulerOutputIsCleanOnEveryDevice) {
  const api::Session session;
  for (const std::string device :
       {"ultrastar_36z15", "scsi_multi_idle", "nvme_tiered"}) {
    for (const std::string& bench : workloads::benchmark_names()) {
      const api::JobSpec spec =
          api::JobSpecBuilder(bench).device(device).build();
      for (const PowerMode mode : {PowerMode::kTpm, PowerMode::kDrpm}) {
        const AnalysisReport report = session.analyze(spec, mode);
        EXPECT_EQ(report.errors(), 0)
            << bench << " on " << device << ", "
            << (mode == PowerMode::kTpm ? "CMTPM" : "CMDRPM");
        EXPECT_EQ(report.warnings(), 0)
            << bench << " on " << device << ", "
            << (mode == PowerMode::kTpm ? "CMTPM" : "CMDRPM");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The well-formedness pass collects every violation instead of stopping at
// the first

AnalysisReport wellformed_report(const ScheduleResult& result,
                                 const layout::LayoutTable& table) {
  AnalysisContext ctx(result, table, params(), analyze_options());
  AnalysisReport report;
  make_wellformed_pass()->run(ctx, report.diagnostics);
  report.sort();
  return report;
}

TEST(Compat, CheckScheduleCollectsEveryViolation) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  // Seed two independent violations: a duplicated spin_down (E004) and a
  // directive on a disk outside the layout (E002).
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinDown) {
      result.program.directives.push_back(pd);
      break;
    }
  }
  result.program.sort_directives();
  // The trailing directive is not part of the duplicated pair.
  result.program.directives.back().directive.disk = 9;
  const AnalysisReport report = wellformed_report(result, table);
  int e002 = 0, e004 = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == "SDPM-E002") ++e002;
    if (d.rule == "SDPM-E004") ++e004;
  }
  EXPECT_GE(e002, 1);
  EXPECT_GE(e004, 1);
}

TEST(Compat, ReturnsDirectiveCountOnSuccess) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.diagnostics.empty()) << render_text(report);
  EXPECT_EQ(report.directives_checked, result.calls_inserted);
  EXPECT_EQ(result.calls_inserted,
            static_cast<std::int64_t>(result.program.directives.size()));
}

// ---------------------------------------------------------------------------
// Well-formedness rules (SDPM-E001..E009)

TEST(Rule, E001OutOfOrder) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  auto& dirs = result.program.directives;
  ASSERT_GE(dirs.size(), 2u);
  // Swap two directives at different globals without re-sorting.
  for (std::size_t i = 1; i < dirs.size(); ++i) {
    if (space.global_of(dirs[i].point) != space.global_of(dirs[0].point)) {
      std::swap(dirs[0], dirs[i]);
      break;
    }
  }
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E001")) << render_text(report);
}

TEST(Rule, E002ForeignDisk) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  ASSERT_FALSE(result.program.directives.empty());
  result.program.directives[0].directive.disk = 9;
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E002")) << render_text(report);
}

TEST(Rule, E003OrphanDirective) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  for (GapPlan& plan : result.plans) {
    plan.begin_iter = 0;
    plan.end_iter = 0;
  }
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E003")) << render_text(report);
}

TEST(Rule, E004DoubleSpinDown) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinDown) {
      result.program.directives.push_back(pd);
      break;
    }
  }
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E004")) << render_text(report);
}

TEST(Rule, E005SpinUpWhileActive) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  bool found = false;
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinUp) {
      result.program.directives.push_back(pd);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E005")) << render_text(report);
}

TEST(Rule, E006SetRpmInStandby) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  bool found = false;
  for (ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSpinUp) {
      pd.directive.kind = ir::PowerDirective::Kind::kSetRpm;
      pd.directive.rpm_level = params().max_level();
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E006")) << render_text(report);
}

TEST(Rule, E007LevelOutsideLadder) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  bool found = false;
  for (ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSetRpm) {
      pd.directive.rpm_level = 99;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E007")) << render_text(report);
}

TEST(Rule, E008LeftDegradedWithoutTrailingGap) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  // Forget every plan: directives are orphans (E003) and the disks end in
  // standby with no declared trailing gap (E008).
  result.plans.clear();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E003")) << render_text(report);
  EXPECT_TRUE(report.has("SDPM-E008")) << render_text(report);
}

TEST(Rule, E009PlanOverlapsActiveIterations) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  // A claimed idle period spanning the whole program necessarily covers
  // disk 0's phase-1 accesses.
  result.plans.push_back(GapPlan{0, 0, space.total(), 1.0, -1, false});
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E009")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Redundancy rules (SDPM-W020, W021, E022)

TEST(Rule, W020NoOpSetRpm) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  bool found = false;
  for (const ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind == ir::PowerDirective::Kind::kSetRpm) {
      result.program.directives.push_back(pd);  // second call is a no-op
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W020")) << render_text(report);
}

TEST(Rule, W021OverriddenDegrade) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  // A second spin_down inside an acted gap overrides the first before any
  // use (also E004: the disk is already in standby).
  bool found = false;
  for (const GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter <= plan.begin_iter + 2) continue;
    result.program.directives.push_back(
        {space.point_of(plan.begin_iter + 1),
         {ir::PowerDirective::Kind::kSpinDown, plan.disk, 0}});
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W021")) << render_text(report);
}

TEST(Rule, E022MixedModesInOneGap) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  bool found = false;
  for (const GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter <= plan.begin_iter + 2) continue;
    result.program.directives.push_back(
        {space.point_of(plan.begin_iter + 1),
         {ir::PowerDirective::Kind::kSetRpm, plan.disk, 0}});
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E022")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Break-even rules (SDPM-E030, W031)

TEST(Rule, E030ShortGapSpinDown) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  std::vector<layout::Striping> striping = tp.striping;
  apply_mutation(Mutation::kShortGapSpinDown, result, striping, params());
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E030")) << render_text(report);
  EXPECT_EQ(report.worst(), Severity::kError);
}

TEST(Rule, W031ProfitableGapUnexploited) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  // Un-act one acted plan: drop its directives and clear the flag.  The
  // profitability rule the scheduler itself used now flags the gap.
  bool found = false;
  for (GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter >= space.total()) continue;
    std::erase_if(result.program.directives,
                  [&](const ir::PlacedDirective& pd) {
                    if (pd.directive.disk != plan.disk) return false;
                    const std::int64_t g = space.global_of(pd.point);
                    return g >= plan.begin_iter && g <= plan.end_iter;
                  });
    plan.acted = false;
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W031")) << render_text(report);
}

// W031 judges a plan in the mode the scheduler made it in, not by the
// directives left in the program: with every directive gone and every plan
// un-acted, each mode's own rule still flags the profitable gaps.
TEST(Rule, W031JudgesEachPlanInItsScheduledMode) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  for (const PowerMode mode : {PowerMode::kTpm, PowerMode::kDrpm}) {
    ScheduleResult result = scheduled(tp, table, mode);
    int acted = 0;
    for (GapPlan& plan : result.plans) {
      EXPECT_EQ(plan.mode, mode);
      if (plan.acted) ++acted;
      plan.acted = false;
    }
    ASSERT_GT(acted, 0);
    result.program.directives.clear();
    result.calls_inserted = 0;
    const AnalysisReport report =
        analyze(result, table, params(), analyze_options());
    const char* call = mode == PowerMode::kTpm ? "no spin_down acts on it"
                                               : "no set_RPM acts on it";
    int flagged = 0;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.rule != "SDPM-W031") continue;
      EXPECT_NE(d.message.find(call), std::string::npos) << d.message;
      ++flagged;
    }
    EXPECT_EQ(flagged, acted) << render_text(report);
  }
}

// ---------------------------------------------------------------------------
// Pre-activation rules (SDPM-E040, W041, W042, N043)

TEST(Rule, E040LatePreactivation) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  std::vector<layout::Striping> striping = tp.striping;
  apply_mutation(Mutation::kLatePreactivation, result, striping, params());
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E040")) << render_text(report);
}

TEST(Rule, W041DemandWakePredicted) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  SchedulerOptions o = scheduler_options(PowerMode::kTpm);
  o.preactivate = false;
  const ScheduleResult result =
      core::schedule_power_calls(tp.program, table, params(), o);
  const trace::IterationSpace space(result.program);
  int expected = 0;
  for (const GapPlan& plan : result.plans) {
    if (plan.acted && plan.end_iter < space.total()) ++expected;
  }
  ASSERT_GE(expected, 1);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_EQ(count_rule(report, "SDPM-W041"), expected) << render_text(report);
}

TEST(Rule, W042WastedTrailingPreactivation) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  // Wake a disk inside its trailing gap: the program ends before any use.
  bool found = false;
  for (const GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter < space.total()) continue;
    result.program.directives.push_back(
        {space.point_of(plan.begin_iter + 1),
         {ir::PowerDirective::Kind::kSpinUp, plan.disk, 0}});
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_EQ(count_rule(report, "SDPM-W042"), 1) << render_text(report);
}

TEST(Rule, N043OverlyConservativeLead) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  const trace::IterationSpace space(result.program);
  // Move a pre-activation to the start of its ~52 s gap: it completes tens
  // of seconds before the access, far more than one transition early.
  bool found = false;
  for (ir::PlacedDirective& pd : result.program.directives) {
    if (pd.directive.kind != ir::PowerDirective::Kind::kSpinUp) continue;
    const std::int64_t g = space.global_of(pd.point);
    for (const GapPlan& plan : result.plans) {
      if (plan.disk != pd.directive.disk || g < plan.begin_iter ||
          g > plan.end_iter || plan.end_iter >= space.total()) {
        continue;
      }
      pd.point = space.point_of(plan.begin_iter + 1);
      found = true;
      break;
    }
    if (found) break;
  }
  ASSERT_TRUE(found);
  result.program.sort_directives();
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-N043")) << render_text(report);
  EXPECT_FALSE(report.has("SDPM-E040")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Misfit rules (SDPM-E050, W051, W052)

TEST(Rule, E050LevelTooSlowForRequestRate) {
  // 75 cycles/iteration at 750 MHz = 0.1 us: a 64 KiB block every 0.82 ms,
  // faster than any RPM level can serve, so the required level is the top.
  ProgramBuilder pb("hot");
  const ArrayId a = pb.array("A", {64 * 8192});
  pb.nest("hot").loop("i", 0, 64 * 8192).stmt(75.0).read(a, {sym("i")}).done();
  ScheduleResult result;
  result.program = pb.build();
  const std::vector<layout::Striping> striping = {layout::Striping{0, 1,
                                                                   kib(64)}};
  const layout::LayoutTable table(result.program, striping, 1);
  const trace::IterationSpace space(result.program);
  const TimeMs interarrival = 8192 * (75.0 / 750e6) * 1e3;
  ASSERT_EQ(policy::min_serviceable_level(kib(64), interarrival, params()),
            params().max_level());
  // Degrade to the bottom level inside the first intra-phase gap and never
  // restore: the next active interval is served at level 0.
  result.program.directives.push_back(
      {space.point_of(1), {ir::PowerDirective::Kind::kSetRpm, 0, 0}});
  result.plans.push_back(GapPlan{0, 1, 8192, 0.8, 0, true});
  result.calls_inserted = 1;
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E050")) << render_text(report);
}

TEST(Rule, W051RoundTripDoesNotFit) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  bool found = false;
  for (GapPlan& plan : result.plans) {
    if (!plan.acted || plan.level < 0 || plan.level >= params().max_level()) {
      continue;
    }
    plan.estimated_ms = 1.0;  // no level's round trip fits 1 ms
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W051")) << render_text(report);
}

TEST(Rule, W052ActiveIntervalBelowFullSpeed) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  const trace::IterationSpace space(result.program);
  // Drop the restore of one acted mid-program gap: the next active interval
  // starts below full speed (still serviceable at TwoPhase's request rate).
  bool found = false;
  for (const GapPlan& plan : result.plans) {
    if (!plan.acted || plan.end_iter >= space.total() ||
        plan.level >= params().max_level()) {
      continue;
    }
    const std::size_t before = result.program.directives.size();
    std::erase_if(result.program.directives,
                  [&](const ir::PlacedDirective& pd) {
                    if (pd.directive.disk != plan.disk ||
                        pd.directive.kind !=
                            ir::PowerDirective::Kind::kSetRpm ||
                        pd.directive.rpm_level != params().max_level()) {
                      return false;
                    }
                    const std::int64_t g = space.global_of(pd.point);
                    return g >= plan.begin_iter && g <= plan.end_iter;
                  });
    if (result.program.directives.size() < before) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W052")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Fission rule (SDPM-E060)

TEST(Rule, E060OverlappingFissionGroups) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  std::vector<layout::Striping> striping = tp.striping;
  apply_mutation(Mutation::kOverlappingFission, result, striping, params());
  const layout::LayoutTable mutated(result.program, striping, 2);
  AnalyzeOptions options = analyze_options();
  options.transform = core::Transformation::kLFDL;
  const AnalysisReport report = analyze(result, mutated, params(), options);
  EXPECT_TRUE(report.has("SDPM-E060")) << render_text(report);
}

TEST(Rule, E060SilentWithDisjointGroups) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  const ScheduleResult result = scheduled(tp, table, PowerMode::kDrpm);
  AnalyzeOptions options = analyze_options();
  options.transform = core::Transformation::kLFDL;
  const AnalysisReport report = analyze(result, table, params(), options);
  EXPECT_FALSE(report.has("SDPM-E060")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Dependence rules (SDPM-E070, N071, N072) and the solver itself

ScheduleResult bare_schedule(ir::Program program) {
  ScheduleResult result;
  result.program = std::move(program);
  return result;
}

ir::Program stencil_program() {
  ProgramBuilder pb("stencil");
  const ArrayId a = pb.array("A", {64, 64});
  pb.nest("sweep")
      .loop("i", 1, 63)
      .loop("j", 0, 63)
      .stmt(1'000.0)
      .write(a, {sym("i"), sym("j")})
      .read(a, {sym("i") - 1, sym("j") + 1})
      .done();
  return pb.build();
}

TEST(Dependence, AntiDiagonalStencilForbidsPermutation) {
  const ir::Program program = stencil_program();
  const ir::DependenceSummary summary =
      ir::uniform_dependences(program.nests[0], program.arrays);
  ASSERT_GE(summary.dependences.size(), 1u);
  bool unsafe = false;
  for (const ir::Dependence& dep : summary.dependences) {
    if (!ir::permits_permutation(dep)) unsafe = true;
  }
  EXPECT_TRUE(unsafe);
  EXPECT_EQ(summary.unanalyzed_pairs, 0);
}

TEST(Dependence, ForwardStencilPermitsPermutation) {
  ProgramBuilder pb("forward");
  const ArrayId a = pb.array("A", {64, 64});
  pb.nest("sweep")
      .loop("i", 1, 64)
      .loop("j", 1, 64)
      .stmt(1'000.0)
      .write(a, {sym("i"), sym("j")})
      .read(a, {sym("i") - 1, sym("j") - 1})
      .done();
  const ir::Program program = pb.build();
  const ir::DependenceSummary summary =
      ir::uniform_dependences(program.nests[0], program.arrays);
  ASSERT_GE(summary.dependences.size(), 1u);
  for (const ir::Dependence& dep : summary.dependences) {
    EXPECT_TRUE(ir::permits_permutation(dep));
    EXPECT_FALSE(dep.loop_independent());
  }
}

TEST(Dependence, IdenticalSubscriptsAreLoopIndependent) {
  ProgramBuilder pb("copy");
  const ArrayId a = pb.array("A", {64, 64});
  pb.nest("sweep")
      .loop("i", 0, 64)
      .loop("j", 0, 64)
      .stmt(1'000.0)
      .write(a, {sym("i"), sym("j")})
      .stmt(1'000.0)
      .read(a, {sym("i"), sym("j")})
      .done();
  const ir::Program program = pb.build();
  const ir::DependenceSummary summary =
      ir::uniform_dependences(program.nests[0], program.arrays);
  ASSERT_GE(summary.dependences.size(), 1u);
  for (const ir::Dependence& dep : summary.dependences) {
    EXPECT_TRUE(dep.loop_independent());
    EXPECT_TRUE(ir::permits_permutation(dep));
  }
}

TEST(Dependence, NonUniformPairIsCountedNotAnalyzed) {
  ProgramBuilder pb("nonuniform");
  const ArrayId a = pb.array("A", {256});
  pb.nest("sweep")
      .loop("i", 0, 128)
      .stmt(1'000.0)
      .write(a, {sym("i")})
      .read(a, {2 * sym("i")})
      .done();
  const ir::Program program = pb.build();
  const ir::DependenceSummary summary =
      ir::uniform_dependences(program.nests[0], program.arrays);
  EXPECT_GE(summary.unanalyzed_pairs, 1);
}

TEST(Rule, E070TiledUnsafeNest) {
  ScheduleResult result = bare_schedule(stencil_program());
  const std::vector<layout::Striping> striping = {layout::Striping{0, 1,
                                                                   kib(64)}};
  const layout::LayoutTable table(result.program, striping, 1);
  AnalyzeOptions options = analyze_options();
  options.transform = core::Transformation::kTL;
  const AnalysisReport report = analyze(result, table, params(), options);
  EXPECT_TRUE(report.has("SDPM-E070")) << render_text(report);
  EXPECT_FALSE(report.has("SDPM-N071"));
}

TEST(Rule, N071UntransformedUnsafeNest) {
  ScheduleResult result = bare_schedule(stencil_program());
  const std::vector<layout::Striping> striping = {layout::Striping{0, 1,
                                                                   kib(64)}};
  const layout::LayoutTable table(result.program, striping, 1);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-N071")) << render_text(report);
  EXPECT_FALSE(report.has("SDPM-E070"));
}

TEST(Rule, N072NonUniformPairs) {
  ProgramBuilder pb("nonuniform");
  const ArrayId a = pb.array("A", {256});
  pb.nest("sweep")
      .loop("i", 0, 128)
      .stmt(1'000.0)
      .write(a, {sym("i")})
      .read(a, {2 * sym("i")})
      .done();
  ScheduleResult result = bare_schedule(pb.build());
  const std::vector<layout::Striping> striping = {layout::Striping{0, 1,
                                                                   kib(64)}};
  const layout::LayoutTable table(result.program, striping, 1);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-N072")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Coverage rules (SDPM-E080, W081)

TEST(Rule, E080SubscriptOutsideExtent) {
  ProgramBuilder pb("oob");
  const ArrayId a = pb.array("A", {64});
  pb.nest("sweep")
      .loop("i", 0, 64)
      .stmt(1'000.0)
      .read(a, {sym("i") + 1})  // max subscript 64, extent 64
      .done();
  ScheduleResult result = bare_schedule(pb.build());
  const std::vector<layout::Striping> striping = {layout::Striping{0, 1,
                                                                   kib(64)}};
  const layout::LayoutTable table(result.program, striping, 1);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-E080")) << render_text(report);
}

TEST(Rule, W081DiskHoldsDataNeverAccessed) {
  ProgramBuilder pb("colddisk");
  const ArrayId a = pb.array("A", {64 * 8192});
  pb.array("B", {64 * 8192});  // laid out on disk 1, never referenced
  pb.nest("sweep")
      .loop("i", 0, 64 * 8192)
      .stmt(1'000.0)
      .read(a, {sym("i")})
      .done();
  ScheduleResult result = bare_schedule(pb.build());
  const std::vector<layout::Striping> striping = {
      layout::Striping{0, 1, kib(64)}, layout::Striping{1, 1, kib(64)}};
  const layout::LayoutTable table(result.program, striping, 2);
  const AnalysisReport report =
      analyze(result, table, params(), analyze_options());
  EXPECT_TRUE(report.has("SDPM-W081")) << render_text(report);
}

// ---------------------------------------------------------------------------
// Seeded bad schedule end to end: deterministic, sorted, byte-stable

TEST(Analyze, SeededMutationOutputIsDeterministic) {
  const TwoPhase tp;
  const layout::LayoutTable table(tp.program, tp.striping, 2);
  ScheduleResult result = scheduled(tp, table, PowerMode::kTpm);
  std::vector<layout::Striping> striping = tp.striping;
  apply_mutation(Mutation::kLatePreactivation, result, striping, params());
  const AnalysisReport a = analyze(result, table, params(), analyze_options());
  const AnalysisReport b = analyze(result, table, params(), analyze_options());
  ASSERT_GT(a.diagnostics.size(), 0u);
  EXPECT_EQ(render_text(a), render_text(b));
  EXPECT_EQ(render_json(a), render_json(b));
  EXPECT_TRUE(a.has("SDPM-E040")) << render_text(a);
  // Sorted canonical order: disk-major, then program position.
  for (std::size_t i = 1; i < a.diagnostics.size(); ++i) {
    const DiagLocation& p = a.diagnostics[i - 1].loc;
    const DiagLocation& q = a.diagnostics[i].loc;
    EXPECT_LE(std::tie(p.disk, p.nest, p.iteration),
              std::tie(q.disk, q.nest, q.iteration));
  }
}

}  // namespace
}  // namespace sdpm::analysis
