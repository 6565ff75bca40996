// Global iteration coordinates across a whole program.
//
// Analyses that span nest boundaries (DAP idle periods, power-call
// placement) need a single monotone coordinate for "how far execution has
// progressed".  We concatenate the flat iteration ranges of all nests in
// program order: global iteration g covers nest n iterations
// [nest_begin(n), nest_end(n)).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.h"

namespace sdpm::trace {

class IterationSpace {
 public:
  explicit IterationSpace(const ir::Program& program);

  /// Total innermost iterations across all nests.
  std::int64_t total() const { return total_; }

  int nest_count() const { return static_cast<int>(begin_.size()); }

  /// First global iteration of nest `n`.
  std::int64_t nest_begin(int n) const;

  /// One past the last global iteration of nest `n`.
  std::int64_t nest_end(int n) const;

  /// Global coordinate of an iteration point.
  std::int64_t global_of(const ir::IterationPoint& point) const;

  /// Inverse of global_of.  `g == total()` maps to the end of the last
  /// nest.
  ir::IterationPoint point_of(std::int64_t g) const;

  /// The nest point_of(g) picks (the last nest beginning at or before g,
  /// so an empty nest never holds g), searching only nests [first, last],
  /// which must hold it.
  int nest_of(std::int64_t g, int first, int last) const;

  /// Same nests with the same trip counts.
  friend bool operator==(const IterationSpace&,
                         const IterationSpace&) = default;

 private:
  std::vector<std::int64_t> begin_;  // per nest
  std::int64_t total_ = 0;
};

}  // namespace sdpm::trace
