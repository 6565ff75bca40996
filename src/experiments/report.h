// Report rendering: turn SimReports and scheme results into the aligned
// tables the CLI, examples and bench binaries print.
#pragma once

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

}  // namespace sdpm::experiments
