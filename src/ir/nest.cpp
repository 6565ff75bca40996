#include "ir/nest.h"

#include "util/error.h"

namespace sdpm::ir {

const char* to_string(AccessKind kind) {
  return kind == AccessKind::kRead ? "read" : "write";
}

std::int64_t Loop::trip_count() const {
  SDPM_REQUIRE(step > 0, "loop step must be positive");
  if (upper <= lower) return 0;
  return (upper - lower + step - 1) / step;
}

std::int64_t LoopNest::iteration_count() const {
  std::int64_t count = 1;
  for (const Loop& loop : loops) count *= loop.trip_count();
  return count;
}

Cycles LoopNest::cycles_per_iteration() const {
  Cycles total = loop_overhead_cycles;
  for (const Statement& s : body) total += s.cycles;
  return total;
}

std::vector<std::int64_t> LoopNest::iteration_at(std::int64_t flat) const {
  SDPM_ASSERT(flat >= 0 && flat < iteration_count(),
              "flat iteration out of range");
  std::vector<std::int64_t> iters(loops.size());
  for (int k = depth() - 1; k >= 0; --k) {
    const auto idx = static_cast<std::size_t>(k);
    const std::int64_t trips = loops[idx].trip_count();
    iters[idx] = loops[idx].value_at(flat % trips);
    flat /= trips;
  }
  return iters;
}

std::vector<std::string> LoopNest::loop_names() const {
  std::vector<std::string> names;
  names.reserve(loops.size());
  for (const Loop& loop : loops) names.push_back(loop.var);
  return names;
}

void LoopNest::validate(std::span<const Array> arrays) const {
  SDPM_REQUIRE(!loops.empty(), "nest '" + name + "' has no loops");
  for (const Loop& loop : loops) {
    SDPM_REQUIRE(loop.step > 0,
                 "nest '" + name + "': loop step must be positive");
    SDPM_REQUIRE(loop.trip_count() > 0,
                 "nest '" + name + "': empty loop '" + loop.var + "'");
  }
  for (const Statement& s : body) {
    for (const ArrayRef& ref : s.refs) {
      SDPM_REQUIRE(ref.array >= 0 &&
                       ref.array < static_cast<ArrayId>(arrays.size()),
                   "nest '" + name + "': reference to unknown array");
      const Array& arr = arrays[static_cast<std::size_t>(ref.array)];
      SDPM_REQUIRE(static_cast<int>(ref.subscripts.size()) == arr.rank(),
                   "nest '" + name + "': subscript rank mismatch for array '" +
                       arr.name + "'");
      for (const AffineExpr& sub : ref.subscripts) {
        SDPM_REQUIRE(sub.coefs.size() <= loops.size(),
                     "nest '" + name +
                         "': subscript references more loops than the nest "
                         "has");
      }
    }
  }
}

}  // namespace sdpm::ir
