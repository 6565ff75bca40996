#include "trace/dap.h"

#include <sstream>
#include <string>

#include "util/error.h"

namespace sdpm::trace {

DiskAccessPattern::DiskAccessPattern(const ir::Program& program,
                                     int total_disks,
                                     const std::vector<MissRecord>& misses)
    : space_(program),
      active_(static_cast<std::size_t>(total_disks)) {
  // Misses come in program order, so each disk's active runs are appended
  // in one pass.
  std::int64_t previous_iter = 0;
  for (const MissRecord& miss : misses) {
    SDPM_ASSERT(miss.disk >= 0 && miss.disk < total_disks,
                "miss references unknown disk");
    SDPM_REQUIRE(miss.global_iter >= previous_iter,
                 "misses must come in program order: iteration " +
                     std::to_string(miss.global_iter) + " after " +
                     std::to_string(previous_iter));
    previous_iter = miss.global_iter;
    active_[static_cast<std::size_t>(miss.disk)].append(miss.global_iter,
                                                        miss.global_iter + 1);
  }
}

DiskAccessPattern DiskAccessPattern::analyze(
    const ir::Program& program, const layout::LayoutTable& layout,
    const GeneratorOptions& options) {
  return DiskAccessPattern(program, layout.total_disks(),
                           *collect_misses(program, layout, options));
}

const IntervalSet& DiskAccessPattern::active_iterations(int disk) const {
  SDPM_REQUIRE(disk >= 0 && disk < disk_count(), "disk out of range");
  return active_[static_cast<std::size_t>(disk)];
}

IntervalSet DiskAccessPattern::idle_periods(int disk) const {
  return active_iterations(disk).gaps_within(0, space_.total());
}

std::vector<DiskAccessPattern::Transition> DiskAccessPattern::transitions(
    int disk) const {
  std::vector<Transition> out;
  const IntervalSet& active = active_iterations(disk);
  std::int64_t cursor = 0;
  for (const Interval& iv : active.intervals()) {
    if (iv.lo > cursor) {
      out.push_back(Transition{space_.point_of(cursor), false});
    }
    out.push_back(Transition{space_.point_of(iv.lo), true});
    cursor = iv.hi;
  }
  if (cursor < space_.total()) {
    out.push_back(Transition{space_.point_of(cursor), false});
  }
  return out;
}

std::string DiskAccessPattern::to_string(const ir::Program& program) const {
  std::ostringstream os;
  for (int d = 0; d < disk_count(); ++d) {
    os << "disk" << d << ":";
    for (const Transition& t : transitions(d)) {
      const std::string nest_name =
          program.nests[static_cast<std::size_t>(t.point.nest_index)].name;
      os << " <Nest " << t.point.nest_index << " (" << nest_name
         << "), iteration " << t.point.flat_iteration << ", "
         << (t.active ? "active" : "idle") << ">";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sdpm::trace
