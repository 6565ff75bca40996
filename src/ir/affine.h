// Affine expressions over the loop iterators of a nest.
//
// A subscript of an array reference is an affine combination of the
// enclosing loop variables plus a constant: sum_k coef[k]*iter[k] + c.
// Coefficients are indexed outer-to-inner, matching LoopNest::loops.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sdpm::ir {

/// An affine function of the loop iterators of one nest.
struct AffineExpr {
  std::vector<std::int64_t> coefs;  ///< one per loop, outer-to-inner
  std::int64_t constant = 0;

  /// Evaluate at a concrete iteration vector (same length as coefs).
  std::int64_t eval(std::span<const std::int64_t> iters) const;

  /// Coefficient of loop `k`, treating missing entries as zero.
  std::int64_t coef(std::size_t k) const {
    return k < coefs.size() ? coefs[k] : 0;
  }

  /// Expression rewritten for a nest whose loop list was transformed by
  /// substituting loop k := sum_j sub[k].coefs[j]*new_iter[j] +
  /// sub[k].constant.  Used by tiling.
  AffineExpr substituted(std::span<const AffineExpr> sub) const;

  std::string to_string(std::span<const std::string> loop_names) const;

  friend bool operator==(const AffineExpr&, const AffineExpr&) = default;
};

/// `coef * iter[loop_index] + constant` in a nest of depth `nest_depth`.
AffineExpr affine_var(std::size_t loop_index, std::size_t nest_depth,
                      std::int64_t coef = 1, std::int64_t constant = 0);

}  // namespace sdpm::ir
