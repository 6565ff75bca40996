// Streaming statistics accumulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace sdpm {

/// Online mean/min/max/sum accumulator (Welford's running mean).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  void reset() { *this = RunningStats{}; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace sdpm
