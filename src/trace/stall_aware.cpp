#include "trace/stall_aware.h"

#include <algorithm>
#include <cmath>

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
  const std::int64_t first = from.position();
  const std::int64_t last = to.position() - 1;  // the last site to try
  const TimeMs deadline = to.time();
  if (last <= first || deadline - from.time() < lead_ms) return first;

  // Every g read lies between the cursors, so its nest lies between
  // theirs and its request count between theirs: t(g) is at_global(g).
  const IterationSpace& space = compute_.space();
  const int first_nest = from.nest();
  const int last_nest = to.nest();
  const auto meets = [&](std::int64_t g) {
    const int nest = space.nest_of(g, first_nest, last_nest);
    const auto before = std::lower_bound(
        miss_iters_.begin() + static_cast<std::ptrdiff_t>(from.before_),
        miss_iters_.begin() + static_cast<std::ptrdiff_t>(to.before_), g);
    const TimeMs t = with_stalls(
        compute_.at(ir::IterationPoint{nest, g - space.nest_begin(nest)}),
        static_cast<std::size_t>(before - miss_iters_.begin()));
    return deadline - t >= lead_ms;
  };

  // The stall is constant from one request's iteration to the next: the
  // segment after the k-th request starts one iteration past it.  Bisect
  // the requests inside the gap for the last segment whose start meets
  // the lead (requests at one iteration share a start, so this is the last
  // of them), which holds the site.
  std::size_t seg = from.before_;
  for (std::size_t hi = to.before_; seg < hi;) {
    const std::size_t mid = seg + (hi - seg + 1) / 2;
    const std::int64_t start = miss_iters_[mid - 1] + 1;
    if (start <= last && meets(start)) {
      seg = mid;
    } else {
      hi = mid - 1;
    }
  }
  const std::int64_t seg_first =
      seg == from.before_ ? first : miss_iters_[seg - 1] + 1;
  const std::int64_t seg_last = seg == to.before_ ? last : miss_iters_[seg];

  // Inside the segment t is each nest's linear time plus one stall: take
  // the last nest whose first iteration there meets the lead, and solve
  // nest_start + per_iter * flat + stall <= deadline - lead for flat
  // (paper Eq. 1), clamped to the segment before the cast.
  int nest = space.nest_of(seg_first, first_nest, last_nest);
  for (int hi = space.nest_of(seg_last, nest, last_nest); nest < hi;) {
    const int mid = nest + (hi - nest + 1) / 2;
    if (meets(space.nest_begin(mid))) {
      nest = mid;
    } else {
      hi = mid - 1;
    }
  }
  const std::int64_t begin = space.nest_begin(nest);
  const double lo = static_cast<double>(std::max(seg_first, begin) - begin);
  const double hi = static_cast<double>(
      std::min(seg_last, space.nest_end(nest) - 1) - begin);
  double flat = hi;  // a nest that takes no time ends the segment
  const TimeMs per_iter = compute_.per_iteration_ms(nest);
  if (per_iter > 0) {
    const TimeMs stall = with_stalls(0.0, seg);
    flat = std::floor(
        (deadline - lead_ms - stall - compute_.nest_start(nest)) / per_iter);
    if (!(flat >= lo)) flat = lo;  // also a NaN
    if (flat > hi) flat = hi;
  }
  const std::int64_t guess = begin + static_cast<std::int64_t>(flat);

  // Gallop from the guess to a bracket [a, b) of the boundary: `a` meets
  // the lead, `b` does not or is `to`; then bisect it.
  std::int64_t a = first;
  std::int64_t b = to.position();
  if (meets(guess)) {
    a = guess;
    for (std::int64_t step = 1; step < b - a; step *= 2) {
      if (!meets(a + step)) {
        b = a + step;
        break;
      }
      a += step;
    }
  } else {
    b = guess;
    for (std::int64_t step = 1; step < b - a; step *= 2) {
      if (meets(b - step)) {
        a = b - step;
        break;
      }
      b -= step;
    }
  }
  while (b - a > 1) {
    const std::int64_t mid = a + (b - a) / 2;
    if (meets(mid)) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return a;
}

}  // namespace sdpm::trace
