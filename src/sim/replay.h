// Replay engine, templated over the concrete policy type.
//
// Both engines run THIS template:
//
//   replay_run<PowerPolicy>   the generic engine — PolicyT is the abstract
//                             base, every hook is a virtual call (wrapper
//                             and custom policies), and
//   replay_run<TpmPolicy>     (etc.) the static kernels the built-in final
//                             policies return from replay_kernel() — the
//                             hooks devirtualize and inline into the loop.
//
// Because the two engines are one template instantiated twice, they
// execute the same statements in the same order on the same doubles; the
// equivalence suite pins the resulting reports bit for bit.
//
// The loops read the trace's requests and power events by index, merged
// on the compute timeline (a power event wins a timestamp tie).  Each
// item's target disk is checked as it is delivered, and per-disk hot
// state is a DiskArrayState (structure of arrays, disk_state.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/tracer.h"
#include "sim/disk_state.h"
#include "sim/disk_unit.h"
#include "sim/policy.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "trace/request.h"
#include "util/error.h"

namespace sdpm::sim {

/// Everything a replay needs beyond the policy: the trace, the disk
/// model, the options, and the already-resolved fault model and tracer.
struct ReplayContext {
  const trace::Trace* trace = nullptr;
  const disk::DiskParameters* params = nullptr;
  const SimOptions* options = nullptr;
  FaultModel* faults = nullptr;      ///< nullptr = fault-free
  obs::EventTracer* tracer = nullptr;  ///< resolved; nullptr = untraced
};

namespace detail {

/// Hand `trace`'s items to `on_power` and `on_request` in replay order:
/// merged by compute-timeline timestamp, a power event winning a tie (it
/// sits immediately before the iteration it annotates).  Every item's
/// target disk is checked before delivery, so the handlers index
/// unchecked.
template <class OnPower, class OnRequest>
void for_each_item(const trace::Trace& trace, OnPower&& on_power,
                   OnRequest&& on_request) {
  const std::vector<trace::Request>& requests = trace.requests;
  const std::vector<trace::PowerEvent>& events = trace.power_events;
  const int total_disks = trace.total_disks;
  std::size_t pi = 0;
  const auto deliver_power = [&] {
    const trace::PowerEvent& ev = events[pi++];
    const int d = ev.directive.disk;
    SDPM_REQUIRE(d >= 0 && d < total_disks,
                 "power event targets unknown disk");
    on_power(ev);
  };
  for (const trace::Request& req : requests) {
    while (pi < events.size() && events[pi].app_time_ms <= req.arrival_ms) {
      deliver_power();
    }
    SDPM_REQUIRE(req.disk >= 0 && req.disk < total_disks,
                 "request targets unknown disk");
    on_request(req);
  }
  while (pi < events.size()) deliver_power();
}

/// Shared replay scaffolding: disk array + units + policy attachment.
struct ReplayRig {
  ReplayRig(const ReplayContext& ctx, int total_disks)
      : state(total_disks, *ctx.params) {
    units.reserve(static_cast<std::size_t>(total_disks));
    for (int d = 0; d < total_disks; ++d) {
      units.emplace_back(state, d, *ctx.params, d, ctx.faults);
      units.back().set_tracer(ctx.tracer);
      units.back().set_capture_busy(ctx.options->capture_busy_periods);
    }
  }

  DiskArrayState state;
  std::vector<DiskUnit> units;
};

/// Finalize energy at `end` and assemble the per-disk reports.
template <class PolicyT>
void finalize_report(PolicyT& policy, ReplayRig& rig, SimReport& report,
                     TimeMs end) {
  report.disks.reserve(rig.units.size());
  for (DiskUnit& unit : rig.units) {
    policy.finalize(unit, end);
    unit.finish(end);
    DiskReport dr = make_disk_report(unit);
    report.total_energy += dr.breakdown.total_j();
    report.disks.push_back(std::move(dr));
  }
}

template <class PolicyT>
SimReport replay_closed_loop(PolicyT& policy, const ReplayContext& ctx) {
  const trace::Trace& trace = *ctx.trace;
  obs::EventTracer* const tracer = ctx.tracer;
  ReplayRig rig(ctx, trace.total_disks);
  policy.set_tracer(tracer);
  for (DiskUnit& unit : rig.units) policy.attach(unit);

  SimReport report;
  report.policy_name = policy.name();
  obs::Span run_span(tracer, policy.name(), 0);

  const TimeMs compute_total = trace.compute_total_ms;
  TimeMs compute_cursor = 0;  // compute-timeline position
  TimeMs app_clock = 0;       // real simulated time (compute + stalls)
  TimeMs* const last_issue = rig.state.last_issue.data();
  const bool capture_responses = ctx.options->capture_responses;

  // Think time is the delta between consecutive compute-timeline stamps;
  // a run of same-timestamp items advances nothing, so the guard below
  // batches it away.  (The monotonicity assert matches the historical
  // behavior in debug builds.)
  const auto advance_app = [&](TimeMs compute_time) {
    if (compute_time > compute_cursor) {
      app_clock += compute_time - compute_cursor;
      compute_cursor = compute_time;
    } else {
      SDPM_ASSERT(compute_time >= compute_cursor - 1e-9,
                  "compute timeline must be monotone");
    }
  };

  for_each_item(
      trace,
      [&](const trace::PowerEvent& ev) {
        advance_app(ev.app_time_ms);
        const std::size_t d = static_cast<std::size_t>(ev.directive.disk);
        policy.on_power_event(rig.units[d], app_clock, ev.directive);
      },
      [&](const trace::Request& req) {
        advance_app(req.arrival_ms);
        const std::size_t d = static_cast<std::size_t>(req.disk);
        DiskUnit& unit = rig.units[d];
        // With a prefetch lead, the request was issued that much earlier
        // and its service overlaps the preceding compute; the application
        // only stalls for whatever remains at demand time.  The issue time
        // never precedes this disk's previous issue (per-disk FIFO
        // ordering).
        TimeMs issue = app_clock;
        if (req.prefetch_lead_ms > 0) {
          issue = std::max(app_clock - req.prefetch_lead_ms, last_issue[d]);
          issue = std::min(issue, app_clock);
          last_issue[d] = issue;
        } else {
          last_issue[d] = app_clock;
        }
        policy.before_service(unit, issue);
        const DiskUnit::ServeResult result =
            unit.serve(issue, req.start_sector, req.size_bytes, req.kind);
        const TimeMs stall = std::max(0.0, result.completion - app_clock);
        report.response_ms.add(stall);
        if (capture_responses) report.responses.push_back(stall);
        if (tracer != nullptr) {
          obs::Event ev;
          ev.kind = obs::EventKind::kService;
          ev.disk = req.disk;
          ev.t0 = issue;
          ev.t1 = result.completion;
          ev.value = stall;
          ev.value2 = static_cast<double>(req.size_bytes);
          tracer->emit(ev);
        }
        policy.after_service(unit, result.completion, stall);
        app_clock += stall;  // blocking only for the un-hidden remainder
        ++report.requests;
        report.bytes_transferred += req.size_bytes;
      });

  // Trailing compute after the last request / power call.
  advance_app(compute_total);
  const TimeMs end = app_clock;

  report.compute_ms = compute_total;
  report.execution_ms = end;
  report.io_stall_ms = end - compute_total;

  finalize_report(policy, rig, report, end);
  run_span.end(end);
  return report;
}

template <class PolicyT>
SimReport replay_open_loop(PolicyT& policy, const ReplayContext& ctx) {
  const trace::Trace& trace = *ctx.trace;
  obs::EventTracer* const tracer = ctx.tracer;
  ReplayRig rig(ctx, trace.total_disks);
  policy.set_tracer(tracer);
  for (DiskUnit& unit : rig.units) policy.attach(unit);

  SimReport report;
  report.policy_name = policy.name();
  obs::Span run_span(tracer, policy.name(), 0);

  // Requests and power events fire at their recorded timestamps.
  const TimeMs compute_total = trace.compute_total_ms;
  const bool capture_responses = ctx.options->capture_responses;
  TimeMs end = compute_total;

  for_each_item(
      trace,
      [&](const trace::PowerEvent& ev) {
        const std::size_t d = static_cast<std::size_t>(ev.directive.disk);
        policy.on_power_event(rig.units[d], ev.app_time_ms, ev.directive);
      },
      [&](const trace::Request& req) {
        const std::size_t d = static_cast<std::size_t>(req.disk);
        DiskUnit& unit = rig.units[d];
        policy.before_service(unit, req.arrival_ms);
        const DiskUnit::ServeResult result = unit.serve(
            req.arrival_ms, req.start_sector, req.size_bytes, req.kind);
        const TimeMs response = result.completion - req.arrival_ms;
        report.response_ms.add(response);
        if (capture_responses) report.responses.push_back(response);
        if (tracer != nullptr) {
          obs::Event ev;
          ev.kind = obs::EventKind::kService;
          ev.disk = req.disk;
          ev.t0 = req.arrival_ms;
          ev.t1 = result.completion;
          ev.value = response;
          ev.value2 = static_cast<double>(req.size_bytes);
          tracer->emit(ev);
        }
        end = std::max(end, result.completion);
        ++report.requests;
        report.bytes_transferred += req.size_bytes;
      });

  report.compute_ms = compute_total;
  report.execution_ms = end;
  report.io_stall_ms = end - compute_total;

  finalize_report(policy, rig, report, end);
  run_span.end(end);
  return report;
}

}  // namespace detail

/// Replay `ctx` under `base`, which must actually be a PolicyT (the
/// engine downcasts — PowerPolicy itself is always valid).  Built-in
/// policies return &replay_run<Self> from replay_kernel().
template <class PolicyT>
SimReport replay_run(PowerPolicy& base, const ReplayContext& ctx) {
  PolicyT& policy = static_cast<PolicyT&>(base);
  return ctx.options->mode == ReplayMode::kClosedLoop
             ? detail::replay_closed_loop<PolicyT>(policy, ctx)
             : detail::replay_open_loop<PolicyT>(policy, ctx);
}

}  // namespace sdpm::sim
