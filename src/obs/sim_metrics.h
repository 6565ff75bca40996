// Bridge from simulation reports to the metrics registry.
//
// The simulator's own registry reporting is O(1) per run (counters only)
// to keep the replay hot path untouched; distribution metrics — idle-gap
// lengths from the per-disk busy timelines, per-request stalls when the
// run captured them — are derived here, once, from the finished report by
// whichever consumer wants them (the CLI's --format metrics, sweeps, tests).
#pragma once

#include "obs/metrics.h"
#include "sim/report.h"

namespace sdpm::obs {

/// Fold `report` into `registry`: counters ("sim.reports_recorded",
/// fault totals), gauges (energy, execution time of this report), the
/// "sim.idle_gap_ms" histogram (gaps between consecutive busy periods per
/// disk), and "sim.response_ms" (only when the run captured per-request
/// responses).
void record_report_metrics(MetricsRegistry& registry,
                           const sim::SimReport& report);

}  // namespace sdpm::obs
