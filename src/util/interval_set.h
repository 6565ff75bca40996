// Sorted disjoint half-open interval sets over int64 coordinates.
//
// Used for iteration-space footprints (which iterations touch a disk) and
// block ranges.  Intervals are half-open [lo, hi); adjacent intervals are
// coalesced on insertion, so the representation is canonical and two sets
// covering the same points compare equal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace sdpm {

/// A half-open interval [lo, hi) of 64-bit coordinates.  Empty when
/// hi <= lo.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  bool empty() const { return hi <= lo; }
  std::int64_t length() const { return empty() ? 0 : hi - lo; }
  bool contains(std::int64_t x) const { return x >= lo && x < hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// A canonical set of disjoint, sorted, coalesced half-open intervals.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Construct from arbitrary (possibly overlapping, unsorted) intervals.
  explicit IntervalSet(std::vector<Interval> intervals);

  /// Insert [lo, hi); overlapping/adjacent intervals are merged.
  void insert(std::int64_t lo, std::int64_t hi);
  void insert(const Interval& iv) { insert(iv.lo, iv.hi); }

  /// Insert [lo, hi), which must not start before the last interval, in
  /// O(1): it extends the last interval when the two overlap or touch.
  void append(std::int64_t lo, std::int64_t hi);

  /// Union with another set.
  void merge(const IntervalSet& other);

  bool contains(std::int64_t x) const;
  bool empty() const { return intervals_.empty(); }

  /// Total number of covered points.
  std::int64_t total_length() const;

  /// Number of disjoint intervals.
  std::size_t size() const { return intervals_.size(); }

  const std::vector<Interval>& intervals() const { return intervals_; }

  /// The complement of this set within [lo, hi): the "gaps".
  IntervalSet gaps_within(std::int64_t lo, std::int64_t hi) const;

  /// Intersection with [lo, hi).
  IntervalSet clipped(std::int64_t lo, std::int64_t hi) const;

  /// True if this set and `other` share any point.
  bool intersects(const IntervalSet& other) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  void normalize();

  std::vector<Interval> intervals_;  // sorted, disjoint, non-adjacent
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace sdpm
