// Whole-program IR: arrays + ordered loop nests + power directives.
//
// A Program is the unit consumed by every analysis and transformation in
// core/ and by the trace generator.  Power-management directives — the
// explicit spin_down / spin_up / set_RPM calls the compiler inserts (paper
// §3) — are attached to iteration points and executed by the simulated
// application immediately before the corresponding iteration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/array.h"
#include "ir/nest.h"
#include "util/units.h"

namespace sdpm::ir {

/// A point in program execution order: immediately before flat iteration
/// `flat_iteration` of nest `nest_index`.  `flat_iteration ==
/// iteration_count()` denotes the point just after the nest completes.
struct IterationPoint {
  int nest_index = 0;
  std::int64_t flat_iteration = 0;

  friend auto operator<=>(const IterationPoint&,
                          const IterationPoint&) = default;
};

/// An explicit disk power-management call inserted by the compiler.
struct PowerDirective {
  enum class Kind {
    kSpinDown,  ///< TPM: active/idle -> standby
    kSpinUp,    ///< TPM: standby -> active (pre-activation)
    kSetRpm,    ///< DRPM: change rotation speed to rpm_level
  };

  Kind kind = Kind::kSpinDown;
  int disk = 0;
  int rpm_level = 0;  ///< target level index for kSetRpm; ignored otherwise
};

const char* to_string(PowerDirective::Kind kind);

/// A directive bound to its insertion point.
struct PlacedDirective {
  IterationPoint point;
  PowerDirective directive;
};

/// A whole program: disk-resident arrays and the loop nests that access
/// them, in execution order.
struct Program {
  std::string name;
  std::vector<Array> arrays;
  std::vector<LoopNest> nests;
  std::vector<PlacedDirective> directives;  ///< sorted by point

  ArrayId add_array(Array array);
  int add_nest(LoopNest nest);

  const Array& array(ArrayId id) const;
  Array& array(ArrayId id);

  /// Total bytes across all arrays (Table 2 "data size").
  Bytes total_data_bytes() const;

  /// Total compute cycles over all nests (excluding directive overhead).
  Cycles total_cycles() const;

  /// Sort directives into program order (stable).
  void sort_directives();

  /// Validate the whole program (array refs, subscript ranks, directive
  /// points).  Throws sdpm::Error on violation.
  void validate() const;

  /// Human-readable structural dump (for docs/examples/tests).
  std::string to_string() const;
};

}  // namespace sdpm::ir
