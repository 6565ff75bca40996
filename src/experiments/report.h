// Report rendering: turn SimReports and scheme results into the aligned
// tables the CLI, examples and bench binaries print.
#pragma once

#include "disk/parameters.h"
#include "sim/report.h"
#include "util/table.h"

namespace sdpm::experiments {

/// Per-disk energy/time breakdown of a simulation: one row per disk with
/// its state-bucket decomposition, service counts and transition counts.
Table per_disk_table(const sim::SimReport& report,
                     const std::string& title = "per-disk breakdown");

/// One-table summary of a simulation (energy, time, stalls, responses).
Table summary_table(const sim::SimReport& report,
                    const std::string& title = "simulation summary");

/// Per-disk RPM residency: how long each disk spent spinning at each
/// level (the DRPM analogue of a state-residency profile).  Levels with no
/// residency anywhere are omitted.
Table rpm_residency_table(const sim::SimReport& report,
                          const disk::DiskParameters& params,
                          const std::string& title = "RPM residency");

}  // namespace sdpm::experiments
