// Disk Access Pattern (DAP) — paper §3.
//
// For each disk, the DAP records the iteration ranges during which the disk
// is accessed ("active") and the gaps between them ("idle"), in iteration
// coordinates: "an entry for a given disk looks like <Nest 1, iteration 1,
// idle> <Nest 2, iteration 50, active> ...".  The compiler derives it by
// combining the data access pattern with the disk layout of each array —
// here by running the exact same access model as the trace generator.
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"
#include "layout/layout_table.h"
#include "trace/generator.h"
#include "trace/iteration_space.h"
#include "util/interval_set.h"

namespace sdpm::trace {

class DiskAccessPattern {
 public:
  /// Analyze `program` against `layout`; `options` controls block size and
  /// buffer-cache model.  A DAP is purely in iteration coordinates, so it
  /// reads only what the access key encodes (see access_key_of): every
  /// program and options that differ only in timing share one memoized
  /// walk with the trace generator.
  static DiskAccessPattern analyze(const ir::Program& program,
                                   const layout::LayoutTable& layout,
                                   const GeneratorOptions& options = {});

  /// Build directly from a miss stream (shared with the trace generator),
  /// which must come in program order.
  DiskAccessPattern(const ir::Program& program, int total_disks,
                    const std::vector<MissRecord>& misses);

  int disk_count() const { return static_cast<int>(active_.size()); }

  const IterationSpace& space() const { return space_; }

  /// Global iterations at which `disk` is accessed, as coalesced intervals.
  const IntervalSet& active_iterations(int disk) const;

  /// Idle periods of `disk` within the whole program, as coalesced
  /// intervals of global iterations (complement of the active set).
  IntervalSet idle_periods(int disk) const;

  /// True if the disk is never accessed by the program.
  bool never_accessed(int disk) const {
    return active_iterations(disk).empty();
  }

  /// Paper-style transition list for one disk: one entry per state change.
  struct Transition {
    ir::IterationPoint point;
    bool active = false;
  };
  std::vector<Transition> transitions(int disk) const;

  /// Render the paper-style DAP listing, e.g.
  ///   disk0: <Nest 0, iteration 0, active> <Nest 1, iteration 50, idle>
  std::string to_string(const ir::Program& program) const;

 private:
  IterationSpace space_;
  std::vector<IntervalSet> active_;  // per disk
};

}  // namespace sdpm::trace
