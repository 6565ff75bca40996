// Physical units used throughout the library.
//
// Simulated time is carried as double *milliseconds* (the unit of the
// paper's trace format); energies in joules; powers in watts.  Free helper
// functions convert explicitly — there are no implicit unit conversions
// anywhere in the code base.
#pragma once

#include <cstdint>

namespace sdpm {

/// Simulated wall-clock time in milliseconds.
using TimeMs = double;

/// Energy in joules.
using Joules = double;

/// Power in watts.
using Watts = double;

/// Processor cycles (application compute cost).
using Cycles = double;

/// Byte counts / byte offsets on disk and in files.
using Bytes = std::int64_t;

/// Logical block number on a single disk.
using BlockNo = std::int64_t;

constexpr TimeMs ms_from_seconds(double s) { return s * 1e3; }
constexpr double seconds_from_ms(TimeMs ms) { return ms * 1e-3; }

/// watts * milliseconds -> joules.
constexpr Joules joules_from_watt_ms(Watts w, TimeMs ms) {
  return w * seconds_from_ms(ms);
}

constexpr Bytes kib(std::int64_t n) { return n * 1024; }
constexpr Bytes mib(std::int64_t n) { return n * 1024 * 1024; }
constexpr Bytes gib(std::int64_t n) { return n * 1024 * 1024 * 1024; }

/// Cycles -> milliseconds at a given clock rate (Hz).
constexpr TimeMs ms_from_cycles(Cycles cycles, double clock_hz) {
  return cycles / clock_hz * 1e3;
}

}  // namespace sdpm
