// Test support: two traces compared field by field, every double by its
// bits, for the checks that a trace built one way is the trace built
// another way exactly (not merely within rounding).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "trace/request.h"

namespace sdpm::test {

/// The first field in which `a` and `b` differ, or "" when none does.
/// Doubles compare by their bits, so 0.0 against -0.0 differs.
inline std::string first_difference(const trace::Trace& a,
                                    const trace::Trace& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto at = [](const char* field, std::size_t i) {
    return std::string(field) + " " + std::to_string(i);
  };
  if (a.requests.size() != b.requests.size()) return "request count";
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const trace::Request& x = a.requests[i];
    const trace::Request& y = b.requests[i];
    if (bits(x.arrival_ms) != bits(y.arrival_ms)) return at("arrival of", i);
    if (bits(x.prefetch_lead_ms) != bits(y.prefetch_lead_ms)) {
      return at("prefetch lead of", i);
    }
    if (x.disk != y.disk || x.start_sector != y.start_sector ||
        x.size_bytes != y.size_bytes || x.kind != y.kind ||
        x.global_iter != y.global_iter) {
      return at("request", i);
    }
  }
  if (a.power_events.size() != b.power_events.size()) {
    return "power event count";
  }
  for (std::size_t i = 0; i < a.power_events.size(); ++i) {
    const trace::PowerEvent& x = a.power_events[i];
    const trace::PowerEvent& y = b.power_events[i];
    if (bits(x.app_time_ms) != bits(y.app_time_ms)) {
      return at("time of power event", i);
    }
    if (x.global_iter != y.global_iter ||
        x.directive.kind != y.directive.kind ||
        x.directive.disk != y.directive.disk ||
        x.directive.rpm_level != y.directive.rpm_level) {
      return at("power event", i);
    }
  }
  if (bits(a.compute_total_ms) != bits(b.compute_total_ms)) {
    return "compute total";
  }
  if (a.total_disks != b.total_disks) return "total disks";
  if (a.bytes_transferred != b.bytes_transferred) return "bytes transferred";
  return "";
}

}  // namespace sdpm::test
