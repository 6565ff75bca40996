// Loop nests: loops, statements, and affine array references.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/affine.h"
#include "ir/array.h"
#include "util/units.h"

namespace sdpm::ir {

/// One loop level: `for (var = lower; var < upper; var += step)`.
struct Loop {
  std::string var;         ///< iterator name (for diagnostics)
  std::int64_t lower = 0;  ///< inclusive
  std::int64_t upper = 0;  ///< exclusive
  std::int64_t step = 1;

  std::int64_t trip_count() const;

  /// Iterator value at trip `t` (0 <= t < trip_count()).
  std::int64_t value_at(std::int64_t t) const { return lower + t * step; }
};

enum class AccessKind { kRead, kWrite };

const char* to_string(AccessKind kind);

/// One array reference inside a statement, e.g. U[i+1][2*j].
struct ArrayRef {
  ArrayId array = -1;
  std::vector<AffineExpr> subscripts;  ///< one per array dimension
  AccessKind kind = AccessKind::kRead;
};

/// A statement: a set of array references plus its compute cost.  The cost
/// is the per-execution cycle count attributed to this statement — the
/// "measured" quantity the paper obtains with gethrtime.
struct Statement {
  std::string label;
  std::vector<ArrayRef> refs;
  Cycles cycles = 0;
};

/// A perfectly-nested loop with a body of statements executed every
/// innermost iteration.
struct LoopNest {
  std::string name;
  std::vector<Loop> loops;  ///< outer-to-inner
  std::vector<Statement> body;
  Cycles loop_overhead_cycles = 0;  ///< per-iteration control overhead

  int depth() const { return static_cast<int>(loops.size()); }

  /// Total innermost iterations (product of trip counts).
  std::int64_t iteration_count() const;

  /// Per-iteration compute cost: statement costs plus loop overhead.
  Cycles cycles_per_iteration() const;

  /// Total compute cycles of the nest.
  Cycles total_cycles() const {
    return cycles_per_iteration() * static_cast<double>(iteration_count());
  }

  /// Decode a flat iteration number (row-major over the loop trip counts)
  /// into concrete iterator values.
  std::vector<std::int64_t> iteration_at(std::int64_t flat) const;

  /// Names of the loop variables, outer-to-inner.
  std::vector<std::string> loop_names() const;

  /// Validate internal consistency against the owning program's arrays.
  void validate(std::span<const Array> arrays) const;
};

}  // namespace sdpm::ir
