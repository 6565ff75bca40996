#include "util/interval_set.h"

#include <algorithm>
#include <ostream>

#include "util/error.h"

namespace sdpm {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << "[" << iv.lo << "," << iv.hi << ")";
}

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  normalize();
}

void IntervalSet::normalize() {
  std::erase_if(intervals_, [](const Interval& iv) { return iv.empty(); });
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  merged.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  intervals_ = std::move(merged);
}

void IntervalSet::insert(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return;
  // Find the first interval that could touch [lo, hi).
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](const Interval& iv, std::int64_t x) { return iv.hi < x; });
  Interval merged{lo, hi};
  auto erase_begin = it;
  while (it != intervals_.end() && it->lo <= merged.hi) {
    merged.lo = std::min(merged.lo, it->lo);
    merged.hi = std::max(merged.hi, it->hi);
    ++it;
  }
  it = intervals_.erase(erase_begin, it);
  intervals_.insert(it, merged);
}

void IntervalSet::append(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return;
  if (intervals_.empty() || lo > intervals_.back().hi) {
    intervals_.push_back(Interval{lo, hi});
    return;
  }
  Interval& back = intervals_.back();
  SDPM_ASSERT(lo >= back.lo, "append before the last interval");
  back.hi = std::max(back.hi, hi);
}

void IntervalSet::merge(const IntervalSet& other) {
  for (const Interval& iv : other.intervals_) insert(iv);
}

bool IntervalSet::contains(std::int64_t x) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), x,
      [](std::int64_t v, const Interval& iv) { return v < iv.lo; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->contains(x);
}

std::int64_t IntervalSet::total_length() const {
  std::int64_t total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

IntervalSet IntervalSet::gaps_within(std::int64_t lo, std::int64_t hi) const {
  // The gaps come out sorted, disjoint and non-adjacent (an interval lies
  // between any two), so they go into the canonical vector directly.
  IntervalSet result;
  if (hi <= lo) return result;
  std::int64_t cursor = lo;
  for (const Interval& iv : intervals_) {
    if (iv.hi <= lo) continue;
    if (iv.lo >= hi) break;
    if (iv.lo > cursor) {
      result.intervals_.push_back(Interval{cursor, std::min(iv.lo, hi)});
    }
    cursor = std::max(cursor, iv.hi);
    if (cursor >= hi) break;
  }
  if (cursor < hi) result.intervals_.push_back(Interval{cursor, hi});
  return result;
}

IntervalSet IntervalSet::clipped(std::int64_t lo, std::int64_t hi) const {
  IntervalSet result;
  for (const Interval& iv : intervals_) {
    const std::int64_t l = std::max(iv.lo, lo);
    const std::int64_t h = std::min(iv.hi, hi);
    if (l < h) result.insert(l, h);
  }
  return result;
}

bool IntervalSet::intersects(const IntervalSet& other) const {
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    if (a->hi <= b->lo) {
      ++a;
    } else if (b->hi <= a->lo) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << "{";
  bool first = true;
  for (const Interval& iv : set.intervals()) {
    if (!first) os << ", ";
    first = false;
    os << iv;
  }
  return os << "}";
}

}  // namespace sdpm
