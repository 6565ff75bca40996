// Ideal (oracle) power management: ITPM and IDRPM.
//
// The paper's ITPM/IDRPM assume "the existence of an oracle predictor for
// detecting idle periods" and act optimally on each one with no performance
// penalty (§4.2) — they are not implementable, and serve as the upper bound
// the compiler-directed schemes are measured against.  Because an oracle by
// definition never perturbs the execution, we evaluate it analytically on
// the Base run's per-disk busy timeline instead of re-simulating: every
// request is serviced exactly as in Base, and each idle gap is billed at
// its energy-optimal treatment.
//
// The per-gap primitives below are shared with the compiler passes in
// core/: CMDRPM calls optimal_rpm_level() with the *estimated* gap length
// while IDRPM uses the *actual* one — the disagreement rate between the two
// is precisely the paper's Table 3.
#pragma once

#include <string>
#include <vector>

#include "disk/parameters.h"
#include "sim/report.h"
#include "util/units.h"

namespace sdpm::policy {

// ---- per-gap primitives ----------------------------------------------------

/// Energy of an idle gap of `gap_ms` spent at RPM `level`: both transitions
/// (billed at the faster level's idle power) plus residence at `level`.
/// For the top level this is simply idle power x gap.  The round trip must
/// fit in the gap.
Joules drpm_gap_energy(TimeMs gap_ms, int level,
                       const disk::DiskParameters& params);

/// True when the round trip max -> level -> max fits within the gap.
bool drpm_level_feasible(TimeMs gap_ms, int level,
                         const disk::DiskParameters& params);

/// The energy-optimal feasible RPM level for an idle gap (top level when
/// the gap is too short to profit from any reduction).  Ties break toward
/// the higher (faster) level.
int optimal_rpm_level(TimeMs gap_ms, const disk::DiskParameters& params);

/// Energy of an idle gap under an optimal spin-down decision (TPM).
Joules tpm_gap_energy(TimeMs gap_ms, const disk::DiskParameters& params);

/// Smallest RPM level at which a sequential request of `request_bytes`
/// completes within the request interarrival time (sustained service
/// without queue growth); the top level when even full speed cannot keep
/// up.  Used by the static analyzer's DRPM-misfit check.
int min_serviceable_level(Bytes request_bytes, TimeMs interarrival_ms,
                          const disk::DiskParameters& params);

/// True when spinning down for this gap saves energy versus idling, in
/// whichever park pays off best (the ideal ITPM's choice).
bool tpm_gap_beneficial(TimeMs gap_ms, const disk::DiskParameters& params);

/// True when a spin_down directive pays off for this gap: parking in the
/// default park, where the directive lands, fits and saves energy.  On a
/// one-park ladder this equals tpm_gap_beneficial; on a multi-park ladder
/// a gap that only a shallower park can pay for does not qualify.  The
/// CMTPM scheduler, the analyzer's W031 and the Table 3 comparison use it.
bool spin_down_beneficial(TimeMs gap_ms, const disk::DiskParameters& params);

// ---- whole-run oracles -------------------------------------------------

/// Treatment chosen for one idle gap.
struct OracleChoice {
  int disk = 0;
  TimeMs gap_start = 0;
  TimeMs gap_ms = 0;
  /// RPM level for IDRPM; -1 denotes "spun down" (ITPM).  The top level /
  /// "stay up" means no action was worthwhile.
  int level = 0;
};

struct OracleReport {
  std::string policy_name;
  Joules total_energy = 0;
  TimeMs execution_ms = 0;  ///< identical to the Base run by construction
  std::vector<Joules> disk_energy;
  std::vector<OracleChoice> choices;  ///< every idle gap, in time order
};

/// Ideal TPM on the Base run `base`.
OracleReport ideal_tpm(const sim::SimReport& base,
                       const disk::DiskParameters& params);

/// Ideal DRPM on the Base run `base`.
OracleReport ideal_drpm(const sim::SimReport& base,
                        const disk::DiskParameters& params);

}  // namespace sdpm::policy
