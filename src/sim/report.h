// Simulation results.  The per-disk entry is the DiskReport each DiskUnit
// accumulates (sim/disk_unit.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/disk_unit.h"
#include "util/stats.h"
#include "util/units.h"

namespace sdpm::sim {

/// Whole-run outcome.
struct SimReport {
  std::string policy_name;
  Joules total_energy = 0;      ///< disk-subsystem energy (paper's "energy")
  TimeMs execution_ms = 0;      ///< application completion time
  TimeMs compute_ms = 0;        ///< pure compute (incl. power-call overhead)
  TimeMs io_stall_ms = 0;       ///< execution - compute
  std::int64_t requests = 0;
  Bytes bytes_transferred = 0;
  RunningStats response_ms;
  /// Response time of every request, in trace order (index-aligned with
  /// Trace::requests); used to build measured per-nest timelines.
  std::vector<TimeMs> responses;
  std::vector<DiskReport> disks;

  int disk_count() const { return static_cast<int>(disks.size()); }

  // Array-wide fault totals (zero without fault injection).
  std::int64_t spin_up_retries() const {
    std::int64_t n = 0;
    for (const DiskReport& d : disks) n += d.spin_up_retries;
    return n;
  }
  std::int64_t media_errors() const {
    std::int64_t n = 0;
    for (const DiskReport& d : disks) n += d.media_errors;
    return n;
  }
  std::int64_t remapped_sectors() const {
    std::int64_t n = 0;
    for (const DiskReport& d : disks) n += d.remapped_sectors;
    return n;
  }
  std::int64_t dropped_directives() const {
    std::int64_t n = 0;
    for (const DiskReport& d : disks) n += d.dropped_directives;
    return n;
  }
};

}  // namespace sdpm::sim
