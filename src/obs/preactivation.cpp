#include "obs/preactivation.h"

#include <cstring>

#include "util/strings.h"

namespace sdpm::obs {

namespace {
constexpr TimeMs kEps = 1e-9;

bool label_is(const Event& e, const char* name) {
  return e.label != nullptr && std::strcmp(e.label, name) == 0;
}
}  // namespace

std::int64_t PreactivationReport::issued() const {
  std::int64_t n = 0;
  for (const auto& d : disks) n += d.issued;
  return n;
}
std::int64_t PreactivationReport::hits() const {
  std::int64_t n = 0;
  for (const auto& d : disks) n += d.hits;
  return n;
}
std::int64_t PreactivationReport::late() const {
  std::int64_t n = 0;
  for (const auto& d : disks) n += d.late;
  return n;
}
std::int64_t PreactivationReport::wasted() const {
  std::int64_t n = 0;
  for (const auto& d : disks) n += d.wasted;
  return n;
}
std::int64_t PreactivationReport::demand_spin_ups() const {
  std::int64_t n = 0;
  for (const auto& d : disks) n += d.demand_spin_ups;
  return n;
}

std::string PreactivationReport::to_string() const {
  static const char* kStateNames[6] = {"active",    "idle",    "standby",
                                       "spin-down", "spin-up", "rpm-shift"};
  std::string out = "pre-activation accounting\n";
  out += str_printf(
      "  issued %lld: hit %lld, late %lld, wasted %lld; demand spin-ups "
      "%lld\n",
      static_cast<long long>(issued()), static_cast<long long>(hits()),
      static_cast<long long>(late()), static_cast<long long>(wasted()),
      static_cast<long long>(demand_spin_ups()));
  if (early_by_ms.count() > 0) {
    out += "  early-by (ms): " + early_by_ms.summary() + "\n";
  }
  if (late_by_ms.count() > 0) {
    out += "  late-by  (ms): " + late_by_ms.summary() + "\n";
  }
  for (std::size_t d = 0; d < energy.size(); ++d) {
    out += str_printf("  disk %zu:", d);
    for (int s = 0; s < 6; ++s) {
      if (energy[d].ms[s] <= 0 && energy[d].j[s] <= 0) continue;
      out += str_printf(" %s %.1fJ/%.0fms", kStateNames[s], energy[d].j[s],
                        energy[d].ms[s]);
    }
    out += "\n";
  }
  return out;
}

PreactivationAccountant::DiskState& PreactivationAccountant::state_of(
    int disk) {
  if (static_cast<std::size_t>(disk) >= state_.size()) {
    state_.resize(static_cast<std::size_t>(disk) + 1);
  }
  return state_[static_cast<std::size_t>(disk)];
}

PreactivationDiskStats& PreactivationAccountant::stats_of(int disk) {
  if (static_cast<std::size_t>(disk) >= report_.disks.size()) {
    report_.disks.resize(static_cast<std::size_t>(disk) + 1);
    report_.energy.resize(static_cast<std::size_t>(disk) + 1);
  }
  return report_.disks[static_cast<std::size_t>(disk)];
}

void PreactivationAccountant::on_event(const Event& e) {
  if (e.disk < 0) return;
  switch (e.kind) {
    case EventKind::kStateSegment: {
      stats_of(e.disk);  // ensure sized
      const int s = static_cast<int>(e.state);
      auto& bucket = report_.energy[static_cast<std::size_t>(e.disk)];
      // `value` is the exact accumulated duration; t1 - t0 can differ in
      // the last floating-point bits and would break the exact
      // reconciliation with EnergyBreakdown.
      bucket.ms[s] += e.value;
      bucket.j[s] += e.energy_j;
      if (e.state == disk::PowerState::kSpinningUp) {
        state_of(e.disk).ready_t = e.t1;
      }
      break;
    }
    case EventKind::kDirective:
      // A park needs no case of its own: before the next request it either
      // meets another commanded spin-up (below) or forces a demand
      // spin-up (kDemandSpinUp), and both mark the pending one wasted.
      if (label_is(e, "spin_up")) {
        ++stats_of(e.disk).issued;
        DiskState& st = state_of(e.disk);
        // A commanded spin-up no-ops while the disk spins, so a
        // still-pending slot here means the disk parked again before any
        // request arrived: the earlier spin-up bought nothing.
        if (st.pending) ++stats_of(e.disk).wasted;
        st.pending = true;
        st.demand_since = false;
      }
      break;
    case EventKind::kDirectiveDropped:
      ++stats_of(e.disk).dropped_directives;
      break;
    case EventKind::kDemandSpinUp: {
      ++stats_of(e.disk).demand_spin_ups;
      DiskState& st = state_of(e.disk);
      if (st.pending) st.demand_since = true;
      break;
    }
    case EventKind::kService: {
      DiskState& st = state_of(e.disk);
      if (!st.pending) break;
      PreactivationDiskStats& stats = stats_of(e.disk);
      if (st.demand_since) {
        // The pre-activated disk was down again by the time the request
        // arrived (re-spun-down, or the wake itself failed past its
        // retries): the commanded spin-up bought nothing.
        ++stats.wasted;
      } else if (st.ready_t > e.t0 + kEps) {
        ++stats.late;
        report_.late_by_ms.add(st.ready_t - e.t0);
      } else {
        ++stats.hits;
        report_.early_by_ms.add(e.t0 - st.ready_t);
      }
      st.pending = false;
      break;
    }
    default:
      break;
  }
}

void PreactivationAccountant::close() {
  if (closed_) return;
  closed_ = true;
  for (std::size_t d = 0; d < state_.size(); ++d) {
    if (state_[d].pending) {
      ++stats_of(static_cast<int>(d)).wasted;
      state_[d].pending = false;
    }
  }
}

}  // namespace sdpm::obs
