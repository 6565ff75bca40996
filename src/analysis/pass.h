// Analysis pass interface and the shared per-run context.
//
// The analyzer consumes exactly what the compiler produced — a
// (ScheduleResult, LayoutTable, DiskParameters) triple — and never
// simulates.  The context is the one per-disk index every pass reads: the
// global iteration space, the nominal compute timeline, each disk's sorted
// directives, gap plans and access points with searches over them, and
// (lazily and guarded, because a malformed program can make the access
// model throw) the Disk Access Pattern.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/compiler.h"
#include "core/schedule.h"
#include "disk/parameters.h"
#include "layout/layout_table.h"
#include "trace/dap.h"
#include "trace/generator.h"
#include "trace/iteration_space.h"
#include "trace/timeline.h"

namespace sdpm::analysis {

struct AnalyzeOptions {
  /// Access-model options.  Must match the scheduler's, or the recomputed
  /// DAP will disagree with the plans (SDPM-E009).
  trace::GeneratorOptions access;
  /// The transformation that produced the program; selects the severity of
  /// the dependence-legality findings (error for tiled code).
  core::Transformation transform = core::Transformation::kNone;
};

/// Shared state of one analyzer run over one schedule.
class AnalysisContext {
 public:
  AnalysisContext(const core::ScheduleResult& result,
                  const layout::LayoutTable& layout,
                  const disk::DiskParameters& params,
                  AnalyzeOptions options);

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const core::ScheduleResult& result() const { return *result_; }
  const ir::Program& program() const { return result_->program; }
  const layout::LayoutTable& layout() const { return *layout_; }
  const disk::DiskParameters& params() const { return *params_; }
  const AnalyzeOptions& options() const { return options_; }

  int total_disks() const { return layout_->total_disks(); }
  int top_level() const { return params_->max_level(); }

  /// Per-call overhead Tm (paper Eq. 1).
  TimeMs tm() const { return options_.access.power_call_overhead_ms; }

  const trace::IterationSpace& space() const { return space_; }

  /// Start time of global iteration `g` on the nominal compute timeline
  /// (clamped to the program).
  TimeMs at(std::int64_t g) const;

  /// Duration of global iteration `g` on that timeline.
  TimeMs iter_ms(std::int64_t g) const;

  /// The recomputed Disk Access Pattern, or nullptr when the access model
  /// rejected the program (see dap_error(); the registry reports it as
  /// SDPM-E090).
  const trace::DiskAccessPattern* dap();

  bool dap_attempted() const { return dap_attempted_; }
  const std::string& dap_error() const { return dap_error_; }

  /// One directive of one disk, in program order.
  struct DirRef {
    std::int64_t global = 0;  ///< global iteration of the placement point
    int index = 0;            ///< index into Program::directives
  };

  /// Directives targeting `disk`, sorted by (global, index).
  const std::vector<DirRef>& directives_of(int disk) const;

  /// Directives of `disk` whose global iteration lies in [lo, hi], in
  /// directives_of order (binary search; empty when hi < lo).
  std::span<const DirRef> directives_in(int disk, std::int64_t lo,
                                        std::int64_t hi) const;

  /// Gap plans of `disk`, sorted by begin_iter.
  const std::vector<const core::GapPlan*>& plans_of(int disk) const;

  /// One access point of a disk: the end of a gap plan that ends before
  /// the program does.  The access there wakes a standby disk on demand.
  struct AccessPoint {
    std::int64_t global = 0;     ///< the plan's end_iter
    std::int64_t gap_begin = 0;  ///< the plan's begin_iter
  };

  /// Access points of `disk`, sorted by global iteration; one per plan, so
  /// plans ending at the same iteration repeat it, in plans_of order.  The
  /// first of such a run is the one a walk can meet with the disk still
  /// degraded: the access clears that state for the rest.
  const std::vector<AccessPoint>& access_points_of(int disk) const;

  /// The demand-wake walk: `disk`'s directives merged with its access
  /// points in the order the simulator meets them.  Before each directive,
  /// `on_access(const AccessPoint&)` sees every access point strictly
  /// before the directive's global iteration; then
  /// `on_directive(const DirRef&)` sees the directive.  The access points
  /// after the last directive come last.
  template <typename OnAccess, typename OnDirective>
  void merge_walk(int disk, OnAccess&& on_access,
                  OnDirective&& on_directive) const {
    const std::vector<AccessPoint>& accesses = access_points_of(disk);
    std::size_t next = 0;
    for (const DirRef& ref : directives_of(disk)) {
      for (; next < accesses.size() && accesses[next].global < ref.global;
           ++next) {
        on_access(accesses[next]);
      }
      on_directive(ref);
    }
    for (; next < accesses.size(); ++next) on_access(accesses[next]);
  }

  /// Location helper: resolve a global iteration to (nest, iteration).
  DiagLocation loc_at(std::int64_t g, int disk, int directive = -1) const;

 private:
  const core::ScheduleResult* result_;
  const layout::LayoutTable* layout_;
  const disk::DiskParameters* params_;
  AnalyzeOptions options_;
  trace::IterationSpace space_;
  trace::Timeline nominal_;
  std::vector<std::vector<DirRef>> directives_by_disk_;
  std::vector<std::vector<const core::GapPlan*>> plans_by_disk_;
  std::vector<std::vector<AccessPoint>> accesses_by_disk_;
  std::optional<trace::DiskAccessPattern> dap_;
  bool dap_attempted_ = false;
  std::string dap_error_;
};

/// One analysis pass: appends diagnostics, never throws for program-level
/// problems (only for analyzer-internal bugs).
class Pass {
 public:
  virtual ~Pass() = default;

  virtual const char* name() const = 0;
  virtual void run(AnalysisContext& ctx, std::vector<Diagnostic>& out) = 0;
};

}  // namespace sdpm::analysis
