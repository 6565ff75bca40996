// Compute-time timelines: mapping iteration points to wall-clock time.
//
// The paper derives per-iteration cycle counts from gethrtime measurements
// on a 750 MHz UltraSPARC-III and converts them to time with the machine's
// clock rate (§3).  We model two timelines over the same program:
//   - the *estimated* timeline the compiler uses (the nominal cycle counts
//     stored in the IR), and
//   - the *actual* timeline of the execution, which applies a per-nest
//     multiplicative error drawn from a seeded log-normal distribution.
// The gap between them is what produces the RPM-level mispredictions the
// paper quantifies in Table 3.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.h"
#include "trace/iteration_space.h"
#include "util/units.h"

namespace sdpm::trace {

/// Clock rate of the paper's measurement platform (SUN Blade1000).
inline constexpr double kDefaultClockHz = 750e6;

/// Configuration of the estimated-vs-actual cycle gap.
struct CycleNoise {
  /// Log-normal sigma of the per-nest multiplicative error; 0 disables the
  /// noise entirely (actual == estimated).
  double sigma = 0.0;
  std::uint64_t seed = 0x5d9f00d5ULL;

  static CycleNoise none() { return CycleNoise{0.0, 0}; }
  static CycleNoise paper_default() { return CycleNoise{0.20, 0x5d9f00d5ULL}; }
};

/// Maps iteration points to cumulative compute time (no I/O stalls).
class Timeline {
 public:
  /// A forward walk over one timeline: at(g) for non-decreasing g equals
  /// at_global(g) bit for bit, but steps a nest index instead of searching
  /// every nest.  The caller owns the cursor and the timeline stays
  /// immutable, so cursors on one timeline may run on different threads.
  /// A g below the previous one restarts the walk at the first nest.
  class Cursor {
   public:
    explicit Cursor(const Timeline& timeline) : timeline_(&timeline) {}

    TimeMs at(std::int64_t g);

    /// The nest of the last g read, as IterationSpace::point_of picks it
    /// (0 before the first read).
    int nest() const { return nest_; }

   private:
    const Timeline* timeline_;
    std::int64_t g_ = 0;
    int nest_ = 0;
  };

  /// Nominal timeline (multiplier 1 per nest).
  Timeline(const ir::Program& program, double clock_hz = kDefaultClockHz);

  /// Timeline with explicit per-nest cycle multipliers.
  Timeline(const ir::Program& program, std::vector<double> multipliers,
           double clock_hz);

  /// Timeline with log-normal per-nest multipliers drawn from `noise`.
  static Timeline with_noise(const ir::Program& program,
                             const CycleNoise& noise,
                             double clock_hz = kDefaultClockHz);

  /// Compute-time at which iteration `point` starts.
  TimeMs at(const ir::IterationPoint& point) const;

  /// Compute-time at the global iteration coordinate `g`.
  TimeMs at_global(std::int64_t g) const;

  /// One past the last global iteration.
  std::int64_t total_iterations() const { return space_.total(); }

  /// Duration of one iteration of nest `n`.
  TimeMs per_iteration_ms(int n) const;

  /// Start time of nest `n`.
  TimeMs nest_start(int n) const;

  /// Total compute time of the program.
  TimeMs total() const;

  const IterationSpace& space() const { return space_; }
  double clock_hz() const { return clock_hz_; }
  const std::vector<double>& multipliers() const { return multipliers_; }

 private:
  void build(const ir::Program& program);

  IterationSpace space_;
  double clock_hz_;
  std::vector<double> multipliers_;   // per nest
  std::vector<TimeMs> nest_start_;    // per nest
  std::vector<TimeMs> per_iter_ms_;   // per nest
  TimeMs total_ = 0;
};

}  // namespace sdpm::trace
