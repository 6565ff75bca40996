// Stall-aware execution-time estimate.
//
// The paper's cycle estimates come from measuring the actual program, so
// they reflect not just compute but the I/O time the execution spends
// blocked.  Those stalls are *bursty* — they occur exactly at the
// iterations that issue disk requests — and pre-activation placement (how
// many iterations before the next use a spin-up must start) is only
// accurate when that burstiness is modelled: the iterations between two
// request bursts pass at pure compute speed, not at the nest's average
// rate.
//
// StallAwareTimeline therefore estimates
//   t(g) = compute_timeline(g) + sum of responses of requests issued
//          before iteration g,
// which the compiler can build entirely from information it already has:
// its (possibly noisy) per-nest cycle estimates and the request stream it
// derived during DAP analysis, priced at a measured average response time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/timeline.h"

namespace sdpm::trace {

class StallAwareTimeline {
 public:
  /// A forward walk over one timeline: at(g) for non-decreasing g equals
  /// at_global(g) bit for bit, in amortized O(1).  It steps a nest index
  /// and a request index instead of searching every request: the request
  /// index gallops (1, 2, 4, ... requests ahead, then a search of the last
  /// stride), so a read that moves past d requests costs O(log d), within
  /// a constant of one search of the whole vector.  The caller owns the
  /// cursor and the timeline stays immutable, so cursors on one timeline
  /// may run on different threads.  A g below the previous one restarts
  /// the walk, so any order of reads is correct and only a forward order
  /// is fast.
  class Cursor {
   public:
    explicit Cursor(const StallAwareTimeline& timeline)
        : timeline_(&timeline), compute_(timeline.compute_) {}

    TimeMs at(std::int64_t g);

    /// The last g read, t(g) there, and the nest that holds it (as
    /// IterationSpace::point_of picks it).
    std::int64_t position() const { return g_; }
    TimeMs time() const { return t_; }
    int nest() const { return compute_.nest(); }

   private:
    friend class StallAwareTimeline;

    const StallAwareTimeline* timeline_;
    Timeline::Cursor compute_;
    std::int64_t g_ = 0;
    std::size_t before_ = 0;  // requests issued strictly before g_
    TimeMs t_ = 0;
  };

  /// `miss_iters` is the (sorted, possibly repeating) global iteration of
  /// every disk request; `responses` the per-request stall times, aligned
  /// with `miss_iters`.
  StallAwareTimeline(Timeline compute, std::vector<std::int64_t> miss_iters,
                     const std::vector<TimeMs>& responses);

  /// Convenience: price every request at a flat `avg_response_ms`.
  StallAwareTimeline(Timeline compute, std::vector<std::int64_t> miss_iters,
                     TimeMs avg_response_ms);

  /// The compute timeline alone, with no requests: t(g) is its compute
  /// time plus 0.0, which is the compute time itself.
  explicit StallAwareTimeline(Timeline compute);

  /// Time at which global iteration `g` begins (non-decreasing in g).
  TimeMs at_global(std::int64_t g) const;

  /// One past the last global iteration.
  std::int64_t total_iterations() const {
    return compute_.total_iterations();
  }

  /// The latest g in [from.position(), to.position()) whose remaining
  /// time t(to) - t(g) is at least `lead_ms`, or from.position() when
  /// none is: the pre-activation site of a gap read by `from` and `to`.
  /// t never decreases as g grows, so the condition holds on a prefix of
  /// the range and any exact search returns the one answer.  This one
  /// bisects over the requests issued inside the gap for the last
  /// constant-stall segment whose start meets the lead, guesses the site
  /// in it from the nest's linear time (paper Eq. 1), and gallops from the
  /// guess with the exact condition.
  std::int64_t latest_start(const Cursor& from, const Cursor& to,
                            TimeMs lead_ms) const;

  const Timeline& compute() const { return compute_; }

  /// Total stall time across all requests.
  TimeMs total_stall_ms() const {
    return cum_stall_.empty() ? 0.0 : cum_stall_.back();
  }

 private:
  /// `compute_time` plus the stalls of the first `before` requests: the
  /// one expression every read of t(g) goes through.
  TimeMs with_stalls(TimeMs compute_time, std::size_t before) const {
    return compute_time + (before == 0 ? 0.0 : cum_stall_[before - 1]);
  }

  Timeline compute_;
  std::vector<std::int64_t> miss_iters_;  // sorted
  std::vector<TimeMs> cum_stall_;         // prefix sums, same length
};

}  // namespace sdpm::trace
