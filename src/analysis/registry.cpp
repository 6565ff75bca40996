#include "analysis/registry.h"

namespace sdpm::analysis {

namespace {

constexpr RuleInfo kCatalog[] = {
    {"SDPM-E001", Severity::kError, "wellformed",
     "directives out of program order"},
    {"SDPM-E002", Severity::kError, "wellformed",
     "directive targets a disk outside the layout"},
    {"SDPM-E003", Severity::kError, "wellformed",
     "directive placed outside every planned idle period"},
    {"SDPM-E004", Severity::kError, "wellformed",
     "spin_down on a disk already in standby"},
    {"SDPM-E005", Severity::kError, "wellformed",
     "spin_up on a disk that is not in standby"},
    {"SDPM-E006", Severity::kError, "wellformed",
     "set_RPM on a disk in standby"},
    {"SDPM-E007", Severity::kError, "wellformed",
     "RPM level outside the disk's ladder"},
    {"SDPM-E008", Severity::kError, "wellformed",
     "disk left degraded at a point where the program still uses it"},
    {"SDPM-E009", Severity::kError, "wellformed",
     "planned idle period is not contained in a DAP idle period"},
    {"SDPM-W020", Severity::kWarning, "redundancy",
     "set_RPM to the level the disk is already at (no-op)"},
    {"SDPM-W021", Severity::kWarning, "redundancy",
     "degrade directive overridden before the disk is next used"},
    {"SDPM-E022", Severity::kError, "redundancy",
     "TPM and DRPM directives mixed within one idle period"},
    {"SDPM-E030", Severity::kError, "break-even",
     "spin-down with less than the break-even time left in the gap"},
    {"SDPM-W031", Severity::kWarning, "break-even",
     "profitable idle period left unexploited"},
    {"SDPM-E040", Severity::kError, "preactivation",
     "pre-activation issued too late to hide the wake-up latency"},
    {"SDPM-W041", Severity::kWarning, "preactivation",
     "disk predicted to wake on demand (no pre-activation scheduled)"},
    {"SDPM-W042", Severity::kWarning, "preactivation",
     "pre-activation wasted (disk degraded again or never used)"},
    {"SDPM-N043", Severity::kNote, "preactivation",
     "pre-activation earlier than the transition needs"},
    {"SDPM-E050", Severity::kError, "misfit",
     "active interval served below the minimum serviceable RPM level"},
    {"SDPM-W051", Severity::kWarning, "misfit",
     "chosen RPM level's round trip does not fit the remaining gap"},
    {"SDPM-W052", Severity::kWarning, "misfit",
     "active interval starts with the disk below full speed"},
    {"SDPM-E060", Severity::kError, "fission",
     "fission groups map to overlapping disk sets"},
    {"SDPM-E070", Severity::kError, "dependence",
     "tiled/interchanged nest carries a permutation-unsafe dependence"},
    {"SDPM-N071", Severity::kNote, "dependence",
     "nest carries a permutation-unsafe dependence (not transformed)"},
    {"SDPM-N072", Severity::kNote, "dependence",
     "reference pairs not uniformly generated; legality unproven"},
    {"SDPM-E080", Severity::kError, "coverage",
     "subscript can address memory outside the array extent"},
    {"SDPM-W081", Severity::kWarning, "coverage",
     "disk holds data but is never accessed by the program"},
    {"SDPM-E090", Severity::kError, "registry",
     "analysis aborted: access model rejected the program"},
};

}  // namespace

std::span<const RuleInfo> rule_catalog() { return kCatalog; }

AnalysisReport analyze(const core::ScheduleResult& result,
                       const layout::LayoutTable& layout,
                       const disk::DiskParameters& params,
                       const AnalyzeOptions& options) {
  const std::unique_ptr<Pass> passes[] = {
      make_wellformed_pass(), make_redundancy_pass(),
      make_break_even_pass(), make_preactivation_pass(),
      make_misfit_pass(),     make_fission_pass(),
      make_dependence_pass(), make_coverage_pass(),
  };
  AnalysisContext ctx(result, layout, params, options);
  AnalysisReport report;
  report.directives_checked =
      static_cast<std::int64_t>(result.program.directives.size());
  for (const std::unique_ptr<Pass>& pass : passes) {
    report.passes_run.emplace_back(pass->name());
    pass->run(ctx, report.diagnostics);
  }
  if (ctx.dap_attempted() && !ctx.dap_error().empty()) {
    report.diagnostics.push_back(
        make_diagnostic("SDPM-E090", "registry", DiagLocation{},
                        "access model rejected the program: " +
                            ctx.dap_error()));
  }
  report.sort();
  return report;
}

}  // namespace sdpm::analysis
