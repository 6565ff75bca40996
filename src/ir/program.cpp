#include "ir/program.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace sdpm::ir {

const char* to_string(PowerDirective::Kind kind) {
  switch (kind) {
    case PowerDirective::Kind::kSpinDown:
      return "spin_down";
    case PowerDirective::Kind::kSpinUp:
      return "spin_up";
    case PowerDirective::Kind::kSetRpm:
      return "set_RPM";
  }
  return "?";
}

ArrayId Program::add_array(Array array) {
  SDPM_REQUIRE(!array.extents.empty(),
               "array '" + array.name + "' must have at least one dimension");
  SDPM_REQUIRE(array.element_size > 0, "element size must be positive");
  arrays.push_back(std::move(array));
  return static_cast<ArrayId>(arrays.size() - 1);
}

int Program::add_nest(LoopNest nest) {
  nests.push_back(std::move(nest));
  return static_cast<int>(nests.size() - 1);
}

const Array& Program::array(ArrayId id) const {
  SDPM_REQUIRE(id >= 0 && id < static_cast<ArrayId>(arrays.size()),
               "array id out of range");
  return arrays[static_cast<std::size_t>(id)];
}

Array& Program::array(ArrayId id) {
  SDPM_REQUIRE(id >= 0 && id < static_cast<ArrayId>(arrays.size()),
               "array id out of range");
  return arrays[static_cast<std::size_t>(id)];
}

Bytes Program::total_data_bytes() const {
  Bytes total = 0;
  for (const Array& a : arrays) total += a.size_bytes();
  return total;
}

Cycles Program::total_cycles() const {
  Cycles total = 0;
  for (const LoopNest& nest : nests) total += nest.total_cycles();
  return total;
}

void Program::sort_directives() {
  std::stable_sort(directives.begin(), directives.end(),
                   [](const PlacedDirective& a, const PlacedDirective& b) {
                     return a.point < b.point;
                   });
}

void Program::validate() const {
  for (const LoopNest& nest : nests) nest.validate(arrays);
  for (const PlacedDirective& pd : directives) {
    SDPM_REQUIRE(pd.point.nest_index >= 0 &&
                     pd.point.nest_index < static_cast<int>(nests.size()),
                 "directive attached to unknown nest");
    const LoopNest& nest =
        nests[static_cast<std::size_t>(pd.point.nest_index)];
    SDPM_REQUIRE(pd.point.flat_iteration >= 0 &&
                     pd.point.flat_iteration <= nest.iteration_count(),
                 "directive iteration out of range in nest '" + nest.name +
                     "'");
    SDPM_REQUIRE(pd.directive.disk >= 0, "directive disk must be >= 0");
  }
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "program " << name << "\n";
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const Array& a = arrays[i];
    os << "  array " << a.name << "[";
    for (std::size_t d = 0; d < a.extents.size(); ++d) {
      if (d != 0) os << "][";
      os << a.extents[d];
    }
    os << "] elem=" << a.element_size << "B " << ir::to_string(a.layout)
       << " (" << fmt_bytes(a.size_bytes()) << ")\n";
  }
  for (std::size_t n = 0; n < nests.size(); ++n) {
    const LoopNest& nest = nests[n];
    os << "  nest[" << n << "] " << nest.name << ": ";
    for (std::size_t k = 0; k < nest.loops.size(); ++k) {
      const Loop& loop = nest.loops[k];
      if (k != 0) os << " ";
      os << "for(" << loop.var << "=" << loop.lower << ".." << loop.upper;
      if (loop.step != 1) os << " step " << loop.step;
      os << ")";
    }
    os << "  [" << nest.cycles_per_iteration() << " cyc/iter]\n";
    const auto names = nest.loop_names();
    for (const Statement& s : nest.body) {
      os << "    " << (s.label.empty() ? "stmt" : s.label) << ":";
      for (const ArrayRef& ref : s.refs) {
        os << " " << (ref.kind == AccessKind::kWrite ? "W:" : "R:")
           << array(ref.array).name << "[";
        for (std::size_t d = 0; d < ref.subscripts.size(); ++d) {
          if (d != 0) os << "][";
          os << ref.subscripts[d].to_string(names);
        }
        os << "]";
      }
      os << "\n";
    }
  }
  if (!directives.empty()) {
    os << "  directives: " << directives.size() << "\n";
  }
  return os.str();
}

}  // namespace sdpm::ir
