// Replay engine, templated over the concrete policy type.
//
// Both engines run THIS template: replay_run<PowerPolicy>, the generic
// engine whose every hook is a virtual call (wrapper and custom policies,
// and simulate_streams), and replay_run<TpmPolicy> etc., the static
// kernels the built-in final policies return from replay_kernel(), whose
// hooks devirtualize and inline into the loop.  Being one template, the
// two execute the same statements in the same order on the same doubles;
// the equivalence suite pins their reports bit for bit.
//
// Every driver shares the item merge (trace::ItemCursor, which the
// certifier walks too) and the ReplayRig: the DiskUnits, power-event
// delivery and the per-request service step.  A driver decides only when
// each item is due and how each application's clock moves: the closed
// loop steps one Application, the open loop delivers every item at its
// recorded timestamp, and replay_streams moves whichever of several
// Applications is due first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/tracer.h"
#include "sim/disk_unit.h"
#include "sim/multi_stream.h"
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

/// The disk array every driver replays on, the policy attached to each
/// unit, and the two steps every driver shares.
template <class PolicyT>
class ReplayRig {
 public:
  ReplayRig(PolicyT& policy, const ReplayContext& ctx, int total_disks)
      : policy_(policy),
        tracer_(ctx.tracer),
        capture_responses_(ctx.options->capture_responses),
        last_issue_(static_cast<std::size_t>(total_disks), 0.0) {
    units_.reserve(static_cast<std::size_t>(total_disks));
    for (int d = 0; d < total_disks; ++d) {
      units_.emplace_back(*ctx.params, d, ctx.faults);
      units_.back().set_tracer(tracer_);
      units_.back().set_capture_busy(ctx.options->capture_busy_periods);
    }
    policy_.set_tracer(tracer_);
    for (DiskUnit& unit : units_) policy_.attach(unit);
  }

  /// The application executes a compiler-inserted power call at `now`.
  void power(const trace::PowerEvent& ev, TimeMs now) {
    policy_.on_power_event(units_[static_cast<std::size_t>(ev.directive.disk)],
                           now, ev.directive);
  }

  struct Service {
    TimeMs completion = 0;
    TimeMs stall = 0;  ///< how long the application waits past its demand
  };

  /// The service step for `req`, which the application demands at
  /// `demand`.  With a prefetch lead the request was issued that much
  /// earlier and its service overlaps the preceding compute; the issue
  /// never precedes this disk's previous issue (per-disk FIFO ordering).
  /// The application stalls only for whatever remains at demand time:
  /// that stall is tallied into `tally` and reported to the policy.
  Service request(const trace::Request& req, TimeMs demand,
                  SimReport& tally) {
    const std::size_t d = static_cast<std::size_t>(req.disk);
    DiskUnit& unit = units_[d];
    TimeMs& last_issue = last_issue_[d];
    TimeMs issue = demand;
    if (req.prefetch_lead_ms > 0) {
      issue = std::max(demand - req.prefetch_lead_ms, last_issue);
      issue = std::min(issue, demand);
    }
    last_issue = issue;
    policy_.before_service(unit, issue);
    const DiskUnit::ServeResult result =
        unit.serve(issue, req.start_sector, req.size_bytes, req.kind);
    const TimeMs stall = std::max(0.0, result.completion - demand);
    tally.response_ms.add(stall);
    if (capture_responses_) tally.responses.push_back(stall);
    if (tracer_ != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kService;
      ev.disk = req.disk;
      ev.t0 = issue;
      ev.t1 = result.completion;
      ev.value = stall;
      ev.value2 = static_cast<double>(req.size_bytes);
      tracer_->emit(ev);
    }
    policy_.after_service(unit, result.completion, stall);
    ++tally.requests;
    tally.bytes_transferred += req.size_bytes;
    return {result.completion, stall};
  }

  /// Finalize energy at `end` and hand each unit's report over to
  /// `report`; the rig is spent afterwards.
  template <class Report>
  void finalize(Report& report, TimeMs end) {
    report.disks.reserve(units_.size());
    for (DiskUnit& unit : units_) {
      policy_.finalize(unit, end);
      unit.finish(end);
      report.total_energy += unit.report().breakdown.total_j();
      report.disks.push_back(std::move(unit).report());
    }
  }

 private:
  PolicyT& policy_;
  obs::EventTracer* const tracer_;
  const bool capture_responses_;
  std::vector<DiskUnit> units_;
  /// Per-disk last issue time (the prefetch lead's FIFO clamp).
  std::vector<TimeMs> last_issue_;
};

/// One closed-loop application, the paper's model: a single thread that
/// computes for the deltas between its trace's compute-timeline stamps and
/// blocks on each request for its stall.  Its requests tally into `tally`.
class Application {
 public:
  explicit Application(const trace::Trace& trace) : items_(trace) {}

  /// Simulated time at which the next item is due — the end of the
  /// trailing compute once every item is delivered, +inf once finished.
  TimeMs due() const {
    if (finished_) return std::numeric_limits<TimeMs>::infinity();
    return clock_ + std::max(0.0, items_.next_time() - compute_);
  }

  /// Simulated time: compute plus stalls.
  TimeMs clock() const { return clock_; }

  /// Think up to the next item and deliver it through `rig`.  Once every
  /// item is delivered, think through the trailing compute and return
  /// false.
  template <class PolicyT>
  bool step(ReplayRig<PolicyT>& rig) {
    finished_ = !items_.deliver(
        [&](const trace::PowerEvent& ev) {
          think_to(ev.app_time_ms);
          rig.power(ev, clock_);
        },
        [&](const trace::Request& req) {
          think_to(req.arrival_ms);
          clock_ += rig.request(req, clock_, tally).stall;
        });
    if (finished_) think_to(items_.next_time());
    return !finished_;
  }

  SimReport tally;

 private:
  /// A run of same-timestamp items advances nothing.  (The monotonicity
  /// assert matches the historical behavior in debug builds.)
  void think_to(TimeMs compute_time) {
    if (compute_time > compute_) {
      clock_ += compute_time - compute_;
      compute_ = compute_time;
    } else {
      SDPM_ASSERT(compute_time >= compute_ - 1e-9,
                  "compute timeline must be monotone");
    }
  }

  trace::ItemCursor items_;
  TimeMs compute_ = 0;  ///< compute-timeline position
  TimeMs clock_ = 0;
  bool finished_ = false;
};

/// simulate_streams' driver (sim/multi_stream.h): one Application per
/// trace on one disk array.  The application whose next item is due
/// earliest moves first: serving a request only ever delays the
/// application it serves, so this greedy order is the global arrival
/// order.
template <class PolicyT>
MultiStreamReport replay_streams(PolicyT& policy, const ReplayContext& ctx,
                                 std::span<const trace::Trace> traces,
                                 std::span<const std::string> names) {
  ReplayRig<PolicyT> rig(policy, ctx, traces.front().total_disks);
  std::vector<Application> apps(traces.begin(), traces.end());
  for (;;) {
    Application* next = nullptr;
    TimeMs earliest = std::numeric_limits<TimeMs>::infinity();
    for (Application& app : apps) {
      const TimeMs due = app.due();
      if (due < earliest) {
        earliest = due;
        next = &app;
      }
    }
    if (next == nullptr) break;
    next->step(rig);
  }
  MultiStreamReport report;
  for (std::size_t s = 0; s < apps.size(); ++s) {
    StreamReport& stream = report.streams.emplace_back();
    stream.name = s < names.size() ? names[s] : "stream" + std::to_string(s);
    stream.completion_ms = apps[s].clock();
    stream.compute_ms = traces[s].compute_total_ms;
    stream.requests = apps[s].tally.requests;
    stream.response_ms = apps[s].tally.response_ms;
    report.makespan_ms = std::max(report.makespan_ms, stream.completion_ms);
  }
  rig.finalize(report, report.makespan_ms);
  return report;
}

}  // namespace detail

/// Replay `ctx` under `base`, which must actually be a PolicyT (the
/// engine downcasts — PowerPolicy itself is always valid).  Built-in
/// policies return &replay_run<Self> from replay_kernel().
template <class PolicyT>
SimReport replay_run(PowerPolicy& base, const ReplayContext& ctx) {
  PolicyT& policy = static_cast<PolicyT&>(base);
  const trace::Trace& trace = *ctx.trace;
  detail::ReplayRig<PolicyT> rig(policy, ctx, trace.total_disks);
  obs::Span run_span(ctx.tracer, policy.name(), 0);
  SimReport report;
  TimeMs end = trace.compute_total_ms;
  if (ctx.options->mode == ReplayMode::kClosedLoop) {
    // One application needs no choice of which moves next.
    detail::Application app(trace);
    while (app.step(rig)) {
    }
    end = app.clock();
    report = std::move(app.tally);
  } else {
    // Every item is due at its recorded timestamp, whatever the disks do.
    trace::ItemCursor items(trace);
    while (items.deliver(
        [&](const trace::PowerEvent& ev) { rig.power(ev, ev.app_time_ms); },
        [&](const trace::Request& req) {
          end = std::max(
              end, rig.request(req, req.arrival_ms, report).completion);
        })) {
    }
  }
  report.policy_name = policy.name();
  report.compute_ms = trace.compute_total_ms;
  report.execution_ms = end;
  report.io_stall_ms = end - trace.compute_total_ms;
  rig.finalize(report, end);
  run_span.end(end);
  return report;
}

}  // namespace sdpm::sim
