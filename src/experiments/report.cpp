#include "experiments/report.h"

#include "util/strings.h"

namespace sdpm::experiments {

Table per_disk_table(const sim::SimReport& report, const std::string& title) {
  // The fault columns only appear when some fault fired, so fault-free
  // reports keep their historical shape.
  bool any_faults = false;
  for (const sim::DiskReport& disk : report.disks) {
    any_faults = any_faults || disk.spin_up_retries > 0 ||
                 disk.media_errors > 0 || disk.dropped_directives > 0;
  }
  Table table(title);
  std::vector<std::string> header = {
      "Disk", "Energy (J)", "Active", "Idle", "Standby", "Transitions (J)",
      "Services", "Spin-downs", "Demand-ups", "RPM shifts"};
  if (any_faults) {
    header.insert(header.end(),
                  {"Retries", "Media errs", "Remaps", "Dropped"});
  }
  table.set_header(header);
  for (int d = 0; d < report.disk_count(); ++d) {
    const sim::DiskReport& disk = report.disks[static_cast<std::size_t>(d)];
    const auto& b = disk.breakdown;
    std::vector<std::string> row = {
        std::to_string(d),
        fmt_double(b.total_j(), 2),
        fmt_time_ms(b.active_ms) + " / " + fmt_double(b.active_j, 1) + " J",
        fmt_time_ms(b.idle_ms) + " / " + fmt_double(b.idle_j, 1) + " J",
        fmt_time_ms(b.standby_ms) + " / " + fmt_double(b.standby_j, 1) +
            " J",
        fmt_double(b.spin_down_j + b.spin_up_j + b.rpm_shift_j, 2),
        std::to_string(disk.services),
        std::to_string(disk.spin_downs),
        std::to_string(disk.demand_spin_ups),
        std::to_string(disk.rpm_transitions),
    };
    if (any_faults) {
      row.push_back(std::to_string(disk.spin_up_retries));
      row.push_back(std::to_string(disk.media_errors));
      row.push_back(std::to_string(disk.remapped_sectors));
      row.push_back(std::to_string(disk.dropped_directives));
    }
    table.add_row(row);
  }
  return table;
}

Table summary_table(const sim::SimReport& report, const std::string& title) {
  Table table(title);
  table.set_header({"Metric", "Value"});
  table.add_row({"policy", report.policy_name});
  table.add_row({"disks", std::to_string(report.disk_count())});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"bytes transferred", fmt_bytes(report.bytes_transferred)});
  table.add_row({"disk energy", fmt_double(report.total_energy, 2) + " J"});
  table.add_row({"execution", fmt_time_ms(report.execution_ms)});
  table.add_row({"compute", fmt_time_ms(report.compute_ms)});
  table.add_row({"I/O stall", fmt_time_ms(report.io_stall_ms)});
  table.add_row({"mean response",
                 fmt_time_ms(report.response_ms.mean())});
  table.add_row({"max response", fmt_time_ms(report.response_ms.max())});
  return table;
}

}  // namespace sdpm::experiments
