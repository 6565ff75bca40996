#include "trace/stall_aware.h"

#include <algorithm>

#include "util/error.h"

namespace sdpm::trace {

StallAwareTimeline::StallAwareTimeline(Timeline compute,
                                       std::vector<std::int64_t> miss_iters,
                                       const std::vector<TimeMs>& responses)
    : compute_(std::move(compute)), miss_iters_(std::move(miss_iters)) {
  SDPM_REQUIRE(miss_iters_.size() == responses.size(),
               "one response per request required");
  SDPM_REQUIRE(std::is_sorted(miss_iters_.begin(), miss_iters_.end()),
               "request iterations must be sorted");
  cum_stall_.reserve(miss_iters_.size());
  TimeMs cum = 0;
  for (TimeMs r : responses) {
    SDPM_ASSERT(r >= 0, "negative response time");
    cum += r;
    cum_stall_.push_back(cum);
  }
}

StallAwareTimeline::StallAwareTimeline(Timeline compute,
                                       std::vector<std::int64_t> miss_iters,
                                       TimeMs avg_response_ms)
    : compute_(std::move(compute)), miss_iters_(std::move(miss_iters)) {
  SDPM_REQUIRE(std::is_sorted(miss_iters_.begin(), miss_iters_.end()),
               "request iterations must be sorted");
  SDPM_REQUIRE(avg_response_ms >= 0, "negative response time");
  cum_stall_.reserve(miss_iters_.size());
  for (std::size_t i = 0; i < miss_iters_.size(); ++i) {
    cum_stall_.push_back(avg_response_ms * static_cast<double>(i + 1));
  }
}

StallAwareTimeline::StallAwareTimeline(Timeline compute)
    : compute_(std::move(compute)) {}

TimeMs StallAwareTimeline::at_global(std::int64_t g) const {
  // Stalls of requests issued strictly before iteration g have elapsed by
  // the time g starts.
  const auto it =
      std::lower_bound(miss_iters_.begin(), miss_iters_.end(), g);
  return with_stalls(compute_.at_global(g),
                     static_cast<std::size_t>(it - miss_iters_.begin()));
}

TimeMs StallAwareTimeline::Cursor::at(std::int64_t g) {
  const TimeMs compute_time = compute_.at(g);  // checks g's range first
  const std::vector<std::int64_t>& iters = timeline_->miss_iters_;
  if (g < g_) before_ = 0;
  g_ = g;
  // Every request below `lo` is issued before g; gallop until one is not.
  std::size_t lo = before_;
  std::size_t hi = before_;
  for (std::size_t stride = 1; hi < iters.size() && iters[hi] < g;
       stride *= 2) {
    lo = hi + 1;
    hi = std::min(hi + stride, iters.size());
  }
  before_ = static_cast<std::size_t>(
      std::lower_bound(iters.begin() + static_cast<std::ptrdiff_t>(lo),
                       iters.begin() + static_cast<std::ptrdiff_t>(hi), g) -
      iters.begin());
  t_ = timeline_->with_stalls(compute_time, before_);
  return t_;
}

std::int64_t StallAwareTimeline::latest_start(const Cursor& from,
                                              const Cursor& to,
                                              TimeMs lead_ms) const {
  SDPM_REQUIRE(from.timeline_ == this && to.timeline_ == this,
               "cursors read another timeline");
  SDPM_REQUIRE(from.position() <= to.position(), "cursors out of order");
  const IterationSpace& space = compute_.space();
  const TimeMs deadline = to.time();
  if (deadline - from.time() < lead_ms) return from.position();
  std::int64_t a = from.position();  // invariant: satisfies the lead
  std::int64_t b = to.position();    // invariant: does not (or is `to`)
  while (b - a > 1) {
    const std::int64_t mid = a + (b - a) / 2;
    const int nest =
        space.nest_of(mid, from.compute_.nest(), to.compute_.nest());
    const auto before = std::lower_bound(
        miss_iters_.begin() + static_cast<std::ptrdiff_t>(from.before_),
        miss_iters_.begin() + static_cast<std::ptrdiff_t>(to.before_), mid);
    const TimeMs t = with_stalls(
        compute_.at(ir::IterationPoint{nest, mid - space.nest_begin(nest)}),
        static_cast<std::size_t>(before - miss_iters_.begin()));
    if (deadline - t >= lead_ms) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return a;
}

}  // namespace sdpm::trace
