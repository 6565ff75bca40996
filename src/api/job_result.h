// sdpm::api::JobResult — the stable result record of one JobSpec.
//
// Mirrors experiments::SchemeResult scheme by scheme but carries only
// stable, serializable values: the same JSON shape travels over the
// service protocol, lands in CLI --format json output, and round-trips
// through from_json for clients that store results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "util/json.h"

namespace sdpm::api {

/// Stable failure codes for jobs that end in a terminal error.  The string
/// form travels in job snapshots ("error_code") and protocol error frames
/// ("code"); clients branch on the code, never on the human-readable
/// message.  Codes are append-only: a value is never renamed or reused.
enum class ErrorCode {
  kNone,            ///< no failure
  kExecError,       ///< evaluation threw (bad spec interaction, sim error)
  kJobTimeout,      ///< exceeded the per-job wall-clock deadline
  kQuarantined,     ///< poison job: crashed/overran the daemon too often
  kResultTooLarge,  ///< result exceeds the response frame cap
  kFrameTooLarge,   ///< request frame exceeds the frame cap
  kCancelled,       ///< cancelled by a client before dispatch
};

/// Stable wire string of a code ("EXEC_ERROR", "JOB_TIMEOUT", ...): the
/// one spelling every producer writes.
const char* to_string(ErrorCode code);

/// One scheme's outcome within a job (paper Figs. 3/4 columns).
struct SchemeOutcome {
  std::string scheme;
  double energy_j = 0;
  double execution_ms = 0;
  std::int64_t requests = 0;
  double normalized_energy = 1.0;  ///< vs Base under the same config
  double normalized_time = 1.0;
  std::optional<double> mispredict_pct;  ///< CM schemes only (Table 3)
  std::int64_t power_calls = 0;

  friend bool operator==(const SchemeOutcome&,
                         const SchemeOutcome&) = default;
};

struct JobResult {
  std::string label;      ///< the spec's display label
  std::string benchmark;
  std::string transform;
  std::vector<SchemeOutcome> schemes;  ///< in the spec's scheme order
  /// Wall time this job's evaluation consumed (sum over its scheme tasks);
  /// a measurement, not a simulated quantity — excluded from equality.
  double wall_ms = 0;
  /// Optional analyzer report (analysis::render_json v2: diagnostics,
  /// fix-its, certificate) a caller may attach to a result; nothing in
  /// the job pipeline or the daemon sets it.  Stored as its JSON text;
  /// to_json embeds it as a parsed "analysis" object and from_json
  /// recovers the canonical dump, so the payload — including every fix-it
  /// edit — survives the wire round trip structurally.
  /// Excluded from equality (like wall_ms: canonicalization may reorder
  /// keys without changing meaning).
  std::string analysis_json;
  /// Advisory messages attached by the service ("deprecation: ..." for
  /// schema-v1 specs, for example).  Informational only — excluded from
  /// equality so a note never makes two otherwise-identical results differ.
  std::vector<std::string> notes;

  friend bool operator==(const JobResult& a, const JobResult& b) {
    return a.label == b.label && a.benchmark == b.benchmark &&
           a.transform == b.transform && a.schemes == b.schemes;
  }

  Json to_json() const;
  static JobResult from_json(const Json& json);
};

/// Lift one internal scheme result into the stable record.
SchemeOutcome outcome_from(const experiments::SchemeResult& result);

}  // namespace sdpm::api
