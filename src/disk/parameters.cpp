#include "disk/parameters.h"

namespace sdpm::disk {

namespace {

/// The paper's ladder, built and validated once for every default disk.
const std::shared_ptr<const PowerLadder>& paper_ladder() {
  static const std::shared_ptr<const PowerLadder> ladder =
      std::make_shared<const PowerLadder>(
          PowerLadder::preset("ultrastar_36z15"));
  return ladder;
}

}  // namespace

DiskParameters::DiskParameters() : DiskParameters(paper_ladder()) {}

DiskParameters DiskParameters::ultrastar_36z15() { return DiskParameters(); }

DiskParameters DiskParameters::from_ladder(PowerLadder ladder) {
  ladder.validate();
  return DiskParameters(
      std::make_shared<const PowerLadder>(std::move(ladder)));
}

DiskParameters DiskParameters::preset(const std::string& preset_name) {
  return from_ladder(PowerLadder::preset(preset_name));
}

int DiskParameters::level_of_rpm(int target_rpm) const {
  for (int level = 0; level < rpm_level_count(); ++level) {
    if (rpm_of_level(level) == target_rpm) return level;
  }
  throw Error("RPM value not on the ladder");
}

TimeMs DiskParameters::service_time(Bytes request_bytes, int level,
                                    bool sequential) const {
  SDPM_ASSERT(request_bytes >= 0, "negative request size");
  const double rate_bytes_per_ms =
      transfer_rate_at_level(level) * 1'000'000.0 / 1'000.0;
  const TimeMs transfer = static_cast<double>(request_bytes) / rate_bytes_per_ms;
  if (sequential) return transfer;
  return ladder_->average_seek_time + rotational_latency_at_level(level) +
         transfer;
}

TimeMs DiskParameters::break_even_time(int park) const {
  const int top = max_level();
  const TimeMs down_t = park_entry_time(top, park);
  const Joules down_e = park_entry_energy(top, park);
  const TimeMs up_t = wake_time(park);
  const Joules up_e = wake_energy(park);
  const Watts resident = park_power(park);
  const Joules transition_cost =
      down_e + up_e - resident * seconds_from_ms(down_t + up_t);
  const Watts saving_rate = idle_power_at_level(top) - resident;
  SDPM_REQUIRE(saving_rate > 0,
               "top-level idle power must exceed the park's resident power");
  return ms_from_seconds(transition_cost / saving_rate);
}

}  // namespace sdpm::disk
