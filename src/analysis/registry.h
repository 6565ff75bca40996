// Pass registry and the analyze() facade.
//
// The registry owns the ordered list of analysis passes and runs them over
// one (ScheduleResult, LayoutTable, DiskParameters) triple, collecting a
// sorted AnalysisReport.  The default registry holds every built-in pass;
// callers that want a subset (e.g. only the well-formedness pass) build
// their own.
#pragma once

#include <memory>
#include <span>
#include <vector>

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

// Built-in pass factories, in default registration order.
std::unique_ptr<Pass> make_wellformed_pass();
std::unique_ptr<Pass> make_redundancy_pass();
std::unique_ptr<Pass> make_break_even_pass();
std::unique_ptr<Pass> make_preactivation_pass();
std::unique_ptr<Pass> make_misfit_pass();
std::unique_ptr<Pass> make_fission_pass();
std::unique_ptr<Pass> make_dependence_pass();
std::unique_ptr<Pass> make_coverage_pass();

class PassRegistry {
 public:
  /// Registry with every built-in pass, in catalog order.
  static PassRegistry with_default_passes();

  void add(std::unique_ptr<Pass> pass);

  std::size_t size() const { return passes_.size(); }

  /// Run every registered pass and return the sorted report.  A DAP
  /// failure surfaces as SDPM-E090, not an exception.
  AnalysisReport run(const core::ScheduleResult& result,
                     const layout::LayoutTable& layout,
                     const disk::DiskParameters& params,
                     const AnalyzeOptions& options) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Run the default registry.
AnalysisReport analyze(const core::ScheduleResult& result,
                       const layout::LayoutTable& layout,
                       const disk::DiskParameters& params,
                       const AnalyzeOptions& options = {});

}  // namespace sdpm::analysis
