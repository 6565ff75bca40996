// The rule catalog and the analyze() facade.
//
// analyze() runs the built-in passes, in catalog order, over one
// (ScheduleResult, LayoutTable, DiskParameters) triple and collects a
// sorted AnalysisReport.  A caller that wants one pass (e.g. only the
// well-formedness pass) runs its factory's Pass on an AnalysisContext.
#pragma once

#include <memory>
#include <span>

#include "analysis/pass.h"

namespace sdpm::analysis {

/// Catalog entry for one rule, for `sdpm_cli analyze --list-rules` and the
/// documentation table.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* pass;
  const char* summary;
};

/// Every rule the built-in passes can emit, in id order.
std::span<const RuleInfo> rule_catalog();

// Built-in pass factories, in the order analyze() runs them.
std::unique_ptr<Pass> make_wellformed_pass();
std::unique_ptr<Pass> make_redundancy_pass();
std::unique_ptr<Pass> make_break_even_pass();
std::unique_ptr<Pass> make_preactivation_pass();
std::unique_ptr<Pass> make_misfit_pass();
std::unique_ptr<Pass> make_fission_pass();
std::unique_ptr<Pass> make_dependence_pass();
std::unique_ptr<Pass> make_coverage_pass();

/// Run every built-in pass, in catalog order, and return the sorted report.
/// A DAP failure surfaces as SDPM-E090, not an exception.
AnalysisReport analyze(const core::ScheduleResult& result,
                       const layout::LayoutTable& layout,
                       const disk::DiskParameters& params,
                       const AnalyzeOptions& options = {});

}  // namespace sdpm::analysis
