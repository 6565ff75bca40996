// Disk I/O request trace — the paper's simulator input format.
//
// "Each I/O request is composed of the four parameters: request arrival
// time (in milliseconds), start block number, request size (in bytes), and
// request type (read or write)" (§4.1), extended with the target disk
// (which the paper's simulator derives from the striping information) and
// provenance (which global iteration issued it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ir/program.h"
#include "util/error.h"
#include "util/units.h"

namespace sdpm::trace {

/// One disk I/O request.
struct Request {
  TimeMs arrival_ms = 0;  ///< compute-timeline arrival (no I/O stalls)
  int disk = 0;
  BlockNo start_sector = 0;  ///< 512-byte sector number on that disk
  Bytes size_bytes = 0;
  ir::AccessKind kind = ir::AccessKind::kRead;
  std::int64_t global_iter = 0;  ///< issuing global iteration (provenance)
  /// Compiler-directed prefetching (extension; the paper assumes no
  /// prefetching): how far ahead of the demand access the request may be
  /// issued.  0 = synchronous demand access.  The closed-loop simulator
  /// overlaps the lead with compute and only stalls the application for
  /// whatever service remains at demand time.
  TimeMs prefetch_lead_ms = 0;
};

/// One compiler-inserted power-management call, timestamped on the compute
/// timeline.
struct PowerEvent {
  TimeMs app_time_ms = 0;
  ir::PowerDirective directive;
  std::int64_t global_iter = 0;
};

/// A complete program trace: I/O requests and power calls in program order,
/// plus the pure-compute duration (used by the simulator's closed-loop
/// replay as think time between requests).
struct Trace {
  std::vector<Request> requests;
  std::vector<PowerEvent> power_events;
  TimeMs compute_total_ms = 0;
  int total_disks = 0;
  Bytes bytes_transferred = 0;

  std::int64_t request_count() const {
    return static_cast<std::int64_t>(requests.size());
  }
};

/// One trace's items in replay order: requests and power events merged on
/// the compute timeline, a power event winning a tie (it sits immediately
/// before the iteration it annotates).  Every item's target disk is
/// checked before delivery, so the handlers index unchecked.  The one
/// merge: every replay driver (sim/replay.h) and the certifier
/// (analysis::certify_trace) walk a trace with it.
class ItemCursor {
 public:
  explicit ItemCursor(const Trace& trace)
      : req_(trace.requests.data()),
        req_end_(req_ + trace.requests.size()),
        ev_(trace.power_events.data()),
        ev_end_(ev_ + trace.power_events.size()),
        disks_(trace.total_disks),
        compute_end_(trace.compute_total_ms) {}

  /// Compute-timeline stamp of the next item; the trace's compute end once
  /// every item is delivered.
  TimeMs next_time() const {
    if (power_next()) return ev_->app_time_ms;
    return req_ != req_end_ ? req_->arrival_ms : compute_end_;
  }

  /// Hand the next item to `on_power` or `on_request`; false when every
  /// item has been delivered.
  template <class OnPower, class OnRequest>
  bool deliver(OnPower&& on_power, OnRequest&& on_request) {
    if (power_next()) {
      const PowerEvent& ev = *ev_++;
      SDPM_REQUIRE(ev.directive.disk >= 0 && ev.directive.disk < disks_,
                   "power event targets unknown disk");
      on_power(ev);
      return true;
    }
    if (req_ == req_end_) return false;
    const Request& req = *req_++;
    SDPM_REQUIRE(req.disk >= 0 && req.disk < disks_,
                 "request targets unknown disk");
    on_request(req);
    return true;
  }

 private:
  bool power_next() const {
    return ev_ != ev_end_ &&
           (req_ == req_end_ || ev_->app_time_ms <= req_->arrival_ms);
  }

  const Request* req_;
  const Request* req_end_;
  const PowerEvent* ev_;
  const PowerEvent* ev_end_;
  int disks_;
  TimeMs compute_end_;
};

/// Concatenate `timesteps` copies of `trace` on the compute timeline —
/// the iterative-application view of a single-timestep trace.  Requests
/// and power events of copy `t` are shifted by `t * compute_total_ms`;
/// sectors repeat (a timestep revisits its working set, which exceeds the
/// buffer cache for every workload we model).  Throws on `timesteps < 1`.
Trace repeat_trace(const Trace& trace, int timesteps);

}  // namespace sdpm::trace
