#include "trace/iteration_space.h"

#include <algorithm>

#include "util/error.h"

namespace sdpm::trace {

IterationSpace::IterationSpace(const ir::Program& program) {
  begin_.reserve(program.nests.size());
  std::int64_t cursor = 0;
  for (const ir::LoopNest& nest : program.nests) {
    begin_.push_back(cursor);
    cursor += nest.iteration_count();
  }
  total_ = cursor;
}

std::int64_t IterationSpace::nest_begin(int n) const {
  SDPM_REQUIRE(n >= 0 && n < nest_count(), "nest index out of range");
  return begin_[static_cast<std::size_t>(n)];
}

std::int64_t IterationSpace::nest_end(int n) const {
  SDPM_REQUIRE(n >= 0 && n < nest_count(), "nest index out of range");
  return n + 1 < nest_count() ? begin_[static_cast<std::size_t>(n) + 1]
                              : total_;
}

std::int64_t IterationSpace::global_of(const ir::IterationPoint& point) const {
  return nest_begin(point.nest_index) + point.flat_iteration;
}

ir::IterationPoint IterationSpace::point_of(std::int64_t g) const {
  SDPM_REQUIRE(g >= 0 && g <= total_, "global iteration out of range");
  const int nest = nest_of(g, 0, nest_count() - 1);
  return ir::IterationPoint{nest, g - nest_begin(nest)};
}

int IterationSpace::nest_of(std::int64_t g, int first, int last) const {
  const auto it = std::upper_bound(begin_.begin() + first,
                                   begin_.begin() + last + 1, g);
  return static_cast<int>(it - begin_.begin()) - 1;
}

}  // namespace sdpm::trace
