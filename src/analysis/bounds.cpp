#include "analysis/bounds.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "analysis/interval_domain.h"
#include "util/error.h"

namespace sdpm::analysis {

namespace {

/// One worst-case transition window.  `until` is a sound settle-by time on
/// the compute timeline: the real timeline advances at least as fast as
/// the compute timeline (stalls only add), so a transition chain started
/// at compute time t with total duration D is certainly settled once the
/// application reaches compute time t + D.
struct PendingTransition {
  TimeMs until = 0;     ///< settled by this compute time
  TimeMs duration = 0;  ///< worst-case real duration (bounds request waits)
  Watts power_hi = 0;   ///< max power during any phase of the chain
  bool to_standby = false;
};

/// Abstract state + per-disk accumulators.
struct AbstractDisk {
  std::vector<int> levels;  ///< possible settled spinning levels (sorted)
  bool standby = false;     ///< settled standby possible
  std::vector<PendingTransition> pending;
  TimeMs chain_ready = 0;  ///< latest settle-by among pending windows
  TimeMs billed_to = 0;    ///< compute time integrated so far

  Joules lo_j = 0;
  Joules hi_j = 0;
  TimeIntervalSet may_access;
  bool demand_spinup_possible = false;
  bool wasted_preactivation_possible = false;
};

/// Per-(disk-model) constants the inner loop reuses.
struct ModelTable {
  const disk::DiskParameters* params = nullptr;
  std::vector<Watts> idle_w;    ///< by level
  std::vector<Watts> active_w;  ///< by level
  Watts spin_up_w = 0;
  Watts spin_down_w = 0;
  Watts power_max = 0;  ///< global max power of any disk state
  Watts power_min = 0;  ///< global min power of any disk state

  explicit ModelTable(const disk::DiskParameters& p) : params(&p) {
    const int n = p.rpm_level_count();
    idle_w.reserve(static_cast<std::size_t>(n));
    active_w.reserve(static_cast<std::size_t>(n));
    for (int l = 0; l < n; ++l) {
      idle_w.push_back(p.idle_power_at_level(l));
      active_w.push_back(p.active_power_at_level(l));
    }
    // Directives only ever park into the default (deepest) park, so the
    // wake window is that park's edge; the entry window takes the worst
    // entry edge over all levels (the paper disk: the Table 1 constants).
    const int park = p.default_park();
    const TimeMs up_t = p.wake_time(park);
    const Joules up_e = p.wake_energy(park);
    spin_up_w = up_t > 0 ? up_e / seconds_from_ms(up_t) : 0;
    for (int l = 0; l < n; ++l) {
      const TimeMs down_t = p.park_entry_time(l, park);
      const Joules down_e = p.park_entry_energy(l, park);
      spin_down_w = std::max(
          spin_down_w, down_t > 0 ? down_e / seconds_from_ms(down_t) : 0);
    }
    power_max = std::max({active_w.back(), idle_w.back(), spin_up_w,
                          spin_down_w, p.standby_power()});
    power_min = p.standby_power();
    for (const Watts w : idle_w) power_min = std::min(power_min, w);
    for (const Watts w : active_w) power_min = std::min(power_min, w);
    power_min = std::min({power_min, spin_up_w, spin_down_w});
  }
};

bool standby_possible(const AbstractDisk& d) {
  if (d.standby) return true;
  for (const PendingTransition& p : d.pending) {
    if (p.to_standby) return true;
  }
  return false;
}

/// Upper bound on the disk's instantaneous power given its current
/// abstract state (stale pending windows only loosen the bound).
Watts ceil_power(const AbstractDisk& d, const ModelTable& m) {
  Watts w = d.standby ? m.params->standby_power() : 0;
  for (const int l : d.levels) w = std::max(w, m.idle_w[l]);
  for (const PendingTransition& p : d.pending) w = std::max(w, p.power_hi);
  return w;
}

/// Lower bound on the disk's instantaneous power: the global electronics
/// floor whenever the settled mode or a transition is uncertain, else the
/// idle power of the slowest possible level.
Watts floor_power(const AbstractDisk& d, const ModelTable& m) {
  if (d.standby || !d.pending.empty()) return m.power_min;
  Watts w = m.idle_w[m.params->max_level()];
  for (const int l : d.levels) w = std::min(w, m.idle_w[l]);
  return w;
}

/// Integrate the compute-timeline segment [billed_to, t) at the current
/// ceiling/floor, then drop transition windows that are certainly settled.
void bill_to(AbstractDisk& d, const ModelTable& m, TimeMs t) {
  if (t > d.billed_to) {
    const TimeMs dt = t - d.billed_to;
    d.hi_j += joules_from_watt_ms(ceil_power(d, m), dt);
    d.lo_j += joules_from_watt_ms(floor_power(d, m), dt);
    d.billed_to = t;
  }
  auto keep = std::remove_if(
      d.pending.begin(), d.pending.end(),
      [t](const PendingTransition& p) { return p.until <= t; });
  d.pending.erase(keep, d.pending.end());
  d.chain_ready = 0;
  for (const PendingTransition& p : d.pending) {
    d.chain_ready = std::max(d.chain_ready, p.until);
  }
}

void add_pending(AbstractDisk& d, TimeMs t, TimeMs duration, Watts power_hi,
                 bool to_standby) {
  if (duration <= 0) return;
  PendingTransition p;
  p.until = std::max(t, d.chain_ready) + duration;
  p.duration = duration;
  p.power_hi = power_hi;
  p.to_standby = to_standby;
  d.chain_ready = std::max(d.chain_ready, p.until);
  d.pending.push_back(p);
}

void set_levels(AbstractDisk& d, std::vector<int> levels) {
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  d.levels = std::move(levels);
}

/// Apply one power directive, mirroring policy::ProactivePolicy +
/// sim::DiskUnit over every state the disk may be in.
void apply_directive(AbstractDisk& d, const ModelTable& m, TimeMs t,
                     const ir::PowerDirective& dir) {
  const disk::DiskParameters& p = *m.params;
  switch (dir.kind) {
    case ir::PowerDirective::Kind::kSpinDown: {
      // No-op when already heading to standby; every spinning branch
      // transitions into the default park over its worst entry edge.
      if (!d.levels.empty()) {
        TimeMs down_t = 0;
        Joules down_e = 0;
        for (const int l : d.levels) {
          down_t = std::max(down_t, p.park_entry_time(l, p.default_park()));
          down_e = std::max(down_e, p.park_entry_energy(l, p.default_park()));
        }
        add_pending(d, t, down_t, m.spin_down_w,
                    /*to_standby=*/true);
        d.hi_j += down_e;  // covers tails past end-of-run
      }
      d.levels.clear();
      d.standby = true;
      break;
    }
    case ir::PowerDirective::Kind::kSpinUp: {
      // No-op when spinning or already spinning up; the standby branches
      // wake to the top level.
      if (standby_possible(d)) {
        add_pending(d, t, p.wake_time(p.default_park()), m.spin_up_w,
                    /*to_standby=*/false);
        d.hi_j += p.wake_energy(p.default_park());
        std::vector<int> levels = d.levels;
        levels.push_back(p.max_level());
        set_levels(d, std::move(levels));
        d.standby = false;
        for (PendingTransition& pd : d.pending) pd.to_standby = false;
      }
      break;
    }
    case ir::PowerDirective::Kind::kSetRpm: {
      // ProactivePolicy wakes a standby disk first (spin_up, then the
      // shift from the top level); a spinning disk shifts directly, and a
      // disk already at the target does nothing.  Every branch ends
      // settled at the target level.
      const int target = dir.rpm_level;
      TimeMs duration = 0;
      Watts power = 0;
      Joules lump = 0;
      if (standby_possible(d)) {
        const TimeMs shift = p.rpm_transition_time(p.max_level(), target);
        duration = p.wake_time(p.default_park()) + shift;
        power = std::max(m.spin_up_w, m.idle_w[p.max_level()]);
        lump = p.wake_energy(p.default_park()) +
               p.rpm_transition_energy(p.max_level(), target);
      }
      for (const int from : d.levels) {
        if (from == target) continue;
        duration = std::max(duration, p.rpm_transition_time(from, target));
        power = std::max(power, m.idle_w[std::max(from, target)]);
        lump = std::max(lump, p.rpm_transition_energy(from, target));
      }
      add_pending(d, t, duration, power, /*to_standby=*/false);
      d.hi_j += lump;
      set_levels(d, {target});
      d.standby = false;
      for (PendingTransition& pd : d.pending) pd.to_standby = false;
      break;
    }
  }
}

/// Memoized per-level service times for one request size.
struct ServiceTable {
  Bytes bytes = -1;
  std::vector<TimeMs> service_ms;   ///< seek + rotation + transfer
  std::vector<TimeMs> transfer_ms;  ///< transfer only (sequential case)

  void fill(const disk::DiskParameters& p, Bytes b) {
    if (b == bytes) return;
    bytes = b;
    const int n = p.rpm_level_count();
    service_ms.assign(static_cast<std::size_t>(n), 0);
    transfer_ms.assign(static_cast<std::size_t>(n), 0);
    for (int l = 0; l < n; ++l) {
      service_ms[static_cast<std::size_t>(l)] =
          p.service_time(b, l, /*sequential=*/false);
      transfer_ms[static_cast<std::size_t>(l)] =
          p.service_time(b, l, /*sequential=*/true);
    }
  }
};

/// A restoring directive brings the disk back to full speed ahead of a
/// use; a degrading one sends it to a low-power state.
bool restores(const ir::PowerDirective& dir, int top) {
  return dir.kind == ir::PowerDirective::Kind::kSpinUp ||
         (dir.kind == ir::PowerDirective::Kind::kSetRpm &&
          dir.rpm_level >= top);
}

bool degrades(const ir::PowerDirective& dir, int top) {
  return dir.kind == ir::PowerDirective::Kind::kSpinDown ||
         (dir.kind == ir::PowerDirective::Kind::kSetRpm &&
          dir.rpm_level < top);
}

}  // namespace

ScheduleCertificate certify_trace(const trace::Trace& trace,
                                  const disk::DiskParameters& params) {
  const int disks = trace.total_disks;
  SDPM_REQUIRE(disks > 0, "certify_trace: trace names no disks");
  const ModelTable model(params);
  const TimeMs compute_total = trace.compute_total_ms;

  std::vector<AbstractDisk> state(static_cast<std::size_t>(disks));
  for (AbstractDisk& d : state) {
    d.levels = {params.max_level()};
  }

  // Per-disk item sequences for the wasted-preactivation scan: directive
  // kinds and request markers in program order.
  struct DiskItem {
    bool is_request = false;
    ir::PowerDirective directive;
  };
  std::vector<std::vector<DiskItem>> items(static_cast<std::size_t>(disks));

  ServiceTable service;
  TimeMs stall_lo_total = 0;
  TimeMs stall_hi_total = 0;

  // Merge requests and power events by compute timestamp; power events win
  // ties — the same order the replay's item stream delivers.
  std::size_t ri = 0;
  std::size_t pi = 0;
  const auto& reqs = trace.requests;
  const auto& events = trace.power_events;
  while (ri < reqs.size() || pi < events.size()) {
    const bool take_power =
        pi < events.size() &&
        (ri >= reqs.size() || events[pi].app_time_ms <= reqs[ri].arrival_ms);
    if (take_power) {
      const trace::PowerEvent& ev = events[pi++];
      const int disk = ev.directive.disk;
      SDPM_REQUIRE(disk >= 0 && disk < disks,
                   "certify_trace: power event targets unknown disk");
      AbstractDisk& d = state[static_cast<std::size_t>(disk)];
      bill_to(d, model, ev.app_time_ms);
      apply_directive(d, model, ev.app_time_ms, ev.directive);
      items[static_cast<std::size_t>(disk)].push_back(
          DiskItem{false, ev.directive});
      continue;
    }
    const trace::Request& req = reqs[ri++];
    const int disk = req.disk;
    SDPM_REQUIRE(disk >= 0 && disk < disks,
                 "certify_trace: request targets unknown disk");
    const TimeMs t = req.arrival_ms;
    AbstractDisk& d = state[static_cast<std::size_t>(disk)];
    bill_to(d, model, t);
    service.fill(params, req.size_bytes);

    // Worst-case wait before service: settle whichever transitions may be
    // in flight, then a demand spin-up if standby is reachable.  Pending
    // windows model one serialized chain (add_pending chains settle-by
    // times), so the wait is bounded by the SUM of the durations — a
    // spin-up issued while the spin-down is still in flight really waits
    // for both.
    const bool may_standby = standby_possible(d);
    TimeMs wake_hi = 0;
    for (const PendingTransition& p : d.pending) {
      wake_hi += p.duration;
    }
    if (may_standby) wake_hi += params.wake_time(params.default_park());
    if (may_standby) d.demand_spinup_possible = true;

    // Service levels: any possible settled level; a woken disk serves at
    // the top level.
    TimeMs service_hi = 0;
    for (const int l : d.levels) {
      service_hi = std::max(
          service_hi, service.service_ms[static_cast<std::size_t>(l)]);
    }
    if (may_standby || d.levels.empty()) {
      service_hi = std::max(
          service_hi,
          service.service_ms[static_cast<std::size_t>(params.max_level())]);
    }
    const TimeMs stall_hi = wake_hi + service_hi;
    const TimeMs stall_lo =
        service.transfer_ms[static_cast<std::size_t>(params.max_level())];
    stall_hi_total += stall_hi;
    stall_lo_total += stall_lo;

    // In closed loop the whole wait is wall-clock stall shared by every
    // disk: bill the serving disk at the global max power, every other
    // disk at its own current ceiling.
    for (int e = 0; e < disks; ++e) {
      AbstractDisk& other = state[static_cast<std::size_t>(e)];
      const Watts w =
          e == disk ? model.power_max : ceil_power(other, model);
      other.hi_j += joules_from_watt_ms(w, stall_hi);
    }
    // Lower bound: only the serving disk's minimum active transfer energy
    // is certain.
    Joules active_lo = joules_from_watt_ms(
        model.active_w[0], service.transfer_ms[0]);
    for (int l = 1; l < params.rpm_level_count(); ++l) {
      active_lo = std::min(
          active_lo,
          joules_from_watt_ms(model.active_w[static_cast<std::size_t>(l)],
                              service.transfer_ms[static_cast<std::size_t>(l)]));
    }
    d.lo_j += active_lo;

    d.may_access.insert(t, t + stall_hi);

    // After service every transition has settled and the disk spins.
    std::vector<int> levels = d.levels;
    if (may_standby) levels.push_back(params.max_level());
    set_levels(d, std::move(levels));
    d.standby = false;
    d.pending.clear();
    d.chain_ready = 0;
    items[static_cast<std::size_t>(disk)].push_back(DiskItem{true, {}});
  }

  ScheduleCertificate cert;
  cert.disks = disks;
  cert.compute_total_ms = compute_total;
  cert.requests = trace.request_count();
  cert.exec_lo_ms = compute_total + stall_lo_total;
  cert.exec_hi_ms = compute_total + stall_hi_total;
  cert.no_demand_spinup_proved = true;
  cert.no_wasted_preactivation_proved = true;
  cert.per_disk.reserve(static_cast<std::size_t>(disks));
  const int top = params.max_level();
  for (int disk = 0; disk < disks; ++disk) {
    AbstractDisk& d = state[static_cast<std::size_t>(disk)];
    bill_to(d, model, compute_total);

    // Wasted-preactivation scan: every restore must reach a request before
    // the next degrade or the end of the run.
    const auto& seq = items[static_cast<std::size_t>(disk)];
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].is_request || !restores(seq[i].directive, top)) continue;
      bool used = false;
      for (std::size_t j = i + 1; j < seq.size(); ++j) {
        if (seq[j].is_request) {
          used = true;
          break;
        }
        if (degrades(seq[j].directive, top)) break;
      }
      if (!used) d.wasted_preactivation_possible = true;
    }

    DiskCertificate dc;
    dc.disk = disk;
    dc.energy_lo_j = d.lo_j;
    dc.energy_hi_j = d.hi_j;
    dc.may_access_ms = d.may_access.intervals();
    dc.guaranteed_idle_ms =
        d.may_access.complement_within(0, compute_total).intervals();
    dc.no_demand_spinup_proved = !d.demand_spinup_possible;
    dc.no_wasted_preactivation_proved = !d.wasted_preactivation_possible;
    cert.energy_lo_j += dc.energy_lo_j;
    cert.energy_hi_j += dc.energy_hi_j;
    cert.no_demand_spinup_proved &= dc.no_demand_spinup_proved;
    cert.no_wasted_preactivation_proved &= dc.no_wasted_preactivation_proved;
    cert.per_disk.push_back(std::move(dc));
  }
  return cert;
}

ScheduleCertificate certify_schedule(const core::ScheduleResult& result,
                                     const layout::LayoutTable& layout,
                                     const disk::DiskParameters& params,
                                     const trace::GeneratorOptions& options) {
  trace::TraceGenerator gen(result.program, layout, options);
  return certify_trace(gen.generate(), params);
}

}  // namespace sdpm::analysis
