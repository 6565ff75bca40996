#include "trace/timeline.h"

#include <cmath>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sdpm::trace {

Timeline::Timeline(const ir::Program& program, double clock_hz)
    : Timeline(program,
               std::vector<double>(program.nests.size(), 1.0), clock_hz) {}

Timeline::Timeline(const ir::Program& program,
                   std::vector<double> multipliers, double clock_hz)
    : space_(program), clock_hz_(clock_hz),
      multipliers_(std::move(multipliers)) {
  SDPM_REQUIRE(clock_hz_ > 0, "clock rate must be positive");
  SDPM_REQUIRE(multipliers_.size() == program.nests.size(),
               "need one multiplier per nest");
  build(program);
}

Timeline Timeline::with_noise(const ir::Program& program,
                              const CycleNoise& noise, double clock_hz) {
  std::vector<double> multipliers(program.nests.size(), 1.0);
  if (noise.sigma > 0.0) {
    for (std::size_t n = 0; n < program.nests.size(); ++n) {
      SplitMix64 rng(derive_seed(noise.seed, n));
      multipliers[n] = std::exp(noise.sigma * rng.next_gaussian());
    }
  }
  return Timeline(program, std::move(multipliers), clock_hz);
}

void Timeline::build(const ir::Program& program) {
  nest_start_.resize(program.nests.size());
  per_iter_ms_.resize(program.nests.size());
  TimeMs cursor = 0;
  for (std::size_t n = 0; n < program.nests.size(); ++n) {
    const ir::LoopNest& nest = program.nests[n];
    nest_start_[n] = cursor;
    per_iter_ms_[n] = ms_from_cycles(
        nest.cycles_per_iteration() * multipliers_[n], clock_hz_);
    cursor += per_iter_ms_[n] * static_cast<double>(nest.iteration_count());
    // A large noise sigma overflows a multiplier (exp) or the sum; every
    // timestamp after it would be inf or nan.
    if (!std::isfinite(per_iter_ms_[n]) || !std::isfinite(cursor)) {
      throw Error(str_printf(
          "timeline: nest '%s' (index %zu) gives a non-finite compute time "
          "(%g ms per iteration, %g ms running total; cycle multiplier %g)",
          nest.name.c_str(), n, per_iter_ms_[n], cursor, multipliers_[n]));
    }
  }
  total_ = cursor;
}

TimeMs Timeline::at(const ir::IterationPoint& point) const {
  const auto n = static_cast<std::size_t>(point.nest_index);
  SDPM_ASSERT(n < nest_start_.size(), "nest index out of range");
  return nest_start_[n] +
         per_iter_ms_[n] * static_cast<double>(point.flat_iteration);
}

TimeMs Timeline::at_global(std::int64_t g) const {
  return at(space_.point_of(g));
}

TimeMs Timeline::Cursor::at(std::int64_t g) {
  const IterationSpace& space = timeline_->space_;
  SDPM_REQUIRE(g >= 0 && g <= space.total(), "global iteration out of range");
  if (g < g_) nest_ = 0;
  g_ = g;
  const int last = space.nest_count() - 1;
  if (nest_ < last && space.nest_begin(nest_ + 1) <= g) {
    nest_ = space.nest_of(g, nest_ + 1, last);
  }
  return timeline_->at(
      ir::IterationPoint{nest_, g - space.nest_begin(nest_)});
}

TimeMs Timeline::per_iteration_ms(int n) const {
  SDPM_REQUIRE(n >= 0 && n < static_cast<int>(per_iter_ms_.size()),
               "nest index out of range");
  return per_iter_ms_[static_cast<std::size_t>(n)];
}

TimeMs Timeline::nest_start(int n) const {
  SDPM_REQUIRE(n >= 0 && n < static_cast<int>(nest_start_.size()),
               "nest index out of range");
  return nest_start_[static_cast<std::size_t>(n)];
}

TimeMs Timeline::total() const { return total_; }

}  // namespace sdpm::trace
