// EventTracer: the fan-out hub between instrumented code and sinks.
//
// Instrumentation sites hold an `EventTracer*` that is nullptr when no one
// is listening — the simulator resolves that pointer ONCE per run (a
// tracer with zero sinks collapses to nullptr as well), so the untraced
// hot path costs a single predictable null-pointer test per site and the
// simulation results are bit-identical with tracing on or off (sinks only
// observe; they can never steer the replay).
//
// emit() is serialized by a mutex: a tracer may be shared by concurrent
// threads (the daemon's connection handlers and workers).  Within one
// simulation emission order is the replay order, which is what makes the
// exported streams deterministic.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/event.h"

namespace sdpm::obs {

/// Consumer of the event stream.  Sinks are owned by the caller that
/// attaches them and must outlive the tracer's last emit()/close().
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void on_event(const Event& event) = 0;

  /// End of stream: flush buffered output.  Called by EventTracer::close();
  /// must be idempotent.
  virtual void close() {}
};

class EventTracer {
 public:
  EventTracer() = default;
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Attach a sink (not owned).  Attach all sinks before handing the
  /// tracer to instrumented code.
  void add_sink(EventSink& sink) { sinks_.push_back(&sink); }

  /// True when at least one sink is attached.  Instrumented code checks
  /// this once per run and carries nullptr instead of an inactive tracer.
  bool active() const { return !sinks_.empty(); }

  void emit(const Event& event) {
    std::lock_guard lock(mutex_);
    ++events_emitted_;
    for (EventSink* sink : sinks_) sink->on_event(event);
  }

  /// Flush every sink.  Emit nothing after close().
  void close() {
    std::lock_guard lock(mutex_);
    for (EventSink* sink : sinks_) sink->close();
  }

  std::int64_t events_emitted() const { return events_emitted_; }

 private:
  std::mutex mutex_;
  std::vector<EventSink*> sinks_;
  std::int64_t events_emitted_ = 0;
};

/// Scoped span on the simulated clock: emits kSpanBegin at construction
/// and kSpanEnd at end() or destruction (at the begin time if end() was
/// never reached — simulated time has no implicit "now").
class Span {
 public:
  Span(EventTracer* tracer, const char* label, TimeMs t0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end(TimeMs t1);

 private:
  EventTracer* tracer_;
  const char* label_;
  TimeMs t0_;
  bool ended_ = false;
};

/// Resolve a tracer for one run: nullptr unless `tracer` exists and has at
/// least one sink.  The per-run fast-path check the instrumentation
/// contract is written against.
inline EventTracer* effective_tracer(EventTracer* tracer) {
  return (tracer != nullptr && tracer->active()) ? tracer : nullptr;
}

}  // namespace sdpm::obs
