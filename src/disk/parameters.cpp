#include "disk/parameters.h"

namespace sdpm::disk {

DiskParameters::Device::Device(PowerLadder validated)
    : ladder(std::move(validated)) {
  const std::size_t parks = static_cast<std::size_t>(ladder.park_count());
  levels.reserve(ladder.states.size() - parks);
  for (std::size_t s = parks; s < ladder.states.size(); ++s) {
    const LadderState& level = ladder.states[s];
    levels.push_back(LevelPhysics{
        level.idle_power, level.active_power, level.rot_latency_ms,
        level.transfer_mb_per_s * 1'000'000.0 / 1'000.0});
  }
}

const std::shared_ptr<const DiskParameters::Device>&
DiskParameters::paper_device() {
  static const std::shared_ptr<const Device> device =
      std::make_shared<const Device>(PowerLadder::preset("ultrastar_36z15"));
  return device;
}

DiskParameters::DiskParameters() : DiskParameters(paper_device()) {}

DiskParameters DiskParameters::ultrastar_36z15() { return DiskParameters(); }

DiskParameters DiskParameters::from_ladder(PowerLadder ladder) {
  ladder.validate();
  return DiskParameters(std::make_shared<const Device>(std::move(ladder)));
}

DiskParameters DiskParameters::preset(const std::string& preset_name) {
  return from_ladder(PowerLadder::preset(preset_name));
}

TimeMs DiskParameters::service_time(Bytes request_bytes, int level,
                                    bool sequential) const {
  SDPM_ASSERT(request_bytes >= 0, "negative request size");
  SDPM_REQUIRE(level >= 0 && level < rpm_level_count(),
               "RPM level out of range");
  const LevelPhysics& physics = level_physics(level);
  const TimeMs transfer =
      static_cast<double>(request_bytes) / physics.bytes_per_ms;
  if (sequential) return transfer;
  return ladder().average_seek_time + physics.rot_latency_ms + transfer;
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
