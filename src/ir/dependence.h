// Constant-distance data-dependence analysis over one loop nest.
//
// The transformation legality lint needs to know, for a given (possibly
// already transformed) nest, whether reordering its loops could reverse a
// dependence.  We compute dependences for *uniformly generated* reference
// pairs — same array, identical per-dimension iterator coefficients,
// differing only in the constant terms — which covers every stencil-style
// reference the benchmarks produce.  Non-uniform pairs (e.g. a transposed
// access paired with a direct one) are counted, not analyzed; callers must
// treat them as "legality unproven", never as "legal".
#pragma once

#include <cstdint>
#include <vector>

#include "ir/nest.h"

namespace sdpm::ir {

/// One dependence between two references of a nest, as a per-loop constant
/// distance.  `distance[k]` is the iteration distance carried by loop `k`
/// (outer-to-inner); `free_loop[k]` marks loops that appear in neither
/// reference's subscripts, where the distance is unconstrained ('*' in
/// direction-vector notation).  Vectors are canonicalized so the leading
/// constrained nonzero entry is positive (source precedes sink).
struct Dependence {
  int stmt_a = 0;  ///< statement index of the first reference
  int ref_a = 0;   ///< reference index within stmt_a
  int stmt_b = 0;
  int ref_b = 0;
  ArrayId array = -1;
  std::vector<std::int64_t> distance;  ///< per loop, outer-to-inner
  std::vector<bool> free_loop;         ///< '*' positions (unconstrained)

  /// True when every constrained component is zero (the dependence never
  /// crosses an iteration of a subscript-determining loop).
  bool loop_independent() const;
};

struct DependenceSummary {
  std::vector<Dependence> dependences;
  /// Reference pairs sharing an array (with a write) whose subscripts are
  /// not uniformly generated — skipped, legality unproven.
  int unanalyzed_pairs = 0;
};

/// Compute the constant-distance dependences of `nest` against the owning
/// program's arrays: every ordered pair of references to one array where at
/// least one reference writes.
DependenceSummary uniform_dependences(const LoopNest& nest,
                                      std::span<const Array> arrays);

/// True when `dep` permits any loop permutation (and so tiling) of the
/// nest: either it is loop-independent, or every constrained component is
/// non-negative and no unconstrained ('*') loop could realize a negative
/// component ahead of the carried level.  This is the classic
/// "direction vector contains no '>' (and no '*' before the first '<')"
/// sufficient condition.
bool permits_permutation(const Dependence& dep);

}  // namespace sdpm::ir
