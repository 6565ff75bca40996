// Regenerates paper Table 1: the default simulation parameters, printed
// from the live defaults so the documentation can never drift from the
// code.  Derived quantities the paper implies (break-even threshold, the
// RPM ladder's power curve) are printed alongside.
#include <iostream>

#include "bench/bench_common.h"
#include "disk/parameters.h"
#include "layout/striping.h"
#include "util/strings.h"

int main() {
  using namespace sdpm;
  const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  const disk::PowerLadder& device = p.ladder();
  const int top = p.max_level();

  Table table("Table 1: default simulation parameters");
  table.set_header({"Parameter", "Value"});
  table.add_row({"Disk model", device.model});
  table.add_row({"Interface", device.interface});
  table.add_row({"Storage capacity", fmt_bytes(device.capacity)});
  table.add_row({"RPM", std::to_string(p.rpm_of_level(top))});
  table.add_row({"Average seek time", fmt_time_ms(device.average_seek_time)});
  table.add_row({"Average rotation time",
                 fmt_time_ms(p.rotational_latency_at_level(top))});
  table.add_row({"Internal transfer rate",
                 fmt_double(p.transfer_rate_at_level(top), 0) + " MB/sec"});
  table.add_row({"Power (active)",
                 fmt_double(p.active_power_at_level(top), 1) + " W"});
  table.add_row({"Power (idle)",
                 fmt_double(p.idle_power_at_level(top), 1) + " W"});
  table.add_row({"Power (standby)", fmt_double(p.standby_power(), 1) + " W"});
  table.add_row({"Energy (spin down)",
                 fmt_double(p.park_entry_energy(top, 0), 0) + " J"});
  table.add_row({"Time (spin down)", fmt_time_ms(p.park_entry_time(top, 0))});
  table.add_row({"Energy (spin up)", fmt_double(p.wake_energy(0), 0) + " J"});
  table.add_row({"Time (spin up)", fmt_time_ms(p.wake_time(0))});
  table.add_row({"Maximum RPM level", std::to_string(p.rpm_of_level(top))});
  table.add_row({"Minimum RPM level", std::to_string(p.rpm_of_level(0))});
  table.add_row({"RPM step-size",
                 std::to_string(p.rpm_of_level(1) - p.rpm_of_level(0))});
  table.add_row({"Window size", std::to_string(p.window_size())});
  table.add_row({"RPM step transition time",
                 fmt_time_ms(p.rpm_transition_time(1, 0))});
  layout::Striping striping;
  table.add_row({"Stripe unit (stripe size)",
                 fmt_bytes(striping.stripe_size)});
  table.add_row({"Stripe factor (number of disks)",
                 std::to_string(striping.stripe_factor)});
  table.add_row({"Starting iodevice (starting disk)",
                 std::to_string(striping.starting_disk)});
  table.add_row({"[derived] TPM break-even time",
                 fmt_time_ms(p.break_even_time())});
  bench::emit(table);

  Table ladder("DRPM ladder (derived power/mechanics per level)");
  ladder.set_header({"Level", "RPM", "Idle (W)", "Active (W)",
                     "Rot. latency", "Transfer (MB/s)"});
  for (int level = 0; level < p.rpm_level_count(); ++level) {
    ladder.add_row({
        std::to_string(level),
        std::to_string(p.rpm_of_level(level)),
        fmt_double(p.idle_power_at_level(level), 2),
        fmt_double(p.active_power_at_level(level), 2),
        fmt_time_ms(p.rotational_latency_at_level(level)),
        fmt_double(p.transfer_rate_at_level(level), 1),
    });
  }
  bench::emit(ladder);
  return 0;
}
