// Concrete event sinks: JSONL structured log, Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), and a per-disk power-state
// timeline CSV.
//
// All three write into a caller-owned std::ostream and buffer only what
// their format requires (the Chrome exporter and the CSV timeline need the
// whole stream to emit metadata / merged rows; the JSONL log streams line
// by line).  Output is a pure function of the event stream: no wall-clock
// timestamps, no pointers, doubles printed through fixed deterministic
// formats — a fixed-seed simulation exports byte-identical files on every
// run (see test_obs.cpp).
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace sdpm::obs {

/// One JSON object per event, one event per line, fixed field order.
class JsonlSink final : public EventSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}

  void on_event(const Event& event) override;
  void close() override;

 private:
  std::ostream& os_;
};

/// Chrome trace-event JSON ("trace event format", JSON array flavour).
///
/// Track layout: pid 1 is the simulation in *simulated* time — tid 0 is
/// the application track (run spans), tid d+1 is disk d (state segments
/// and services as complete events, directives/faults/decisions as instant
/// events).  pid 3 is the service in wall time — one track per client lane
/// carrying job lifecycle stages, each stamped with the client's trace_id
/// so it can be stitched to the pid-1 simulated-time run of the same job.
/// Thread-name metadata for every track is emitted on close.
class ChromeTraceSink final : public EventSink {
 public:
  explicit ChromeTraceSink(std::ostream& os) : os_(os) {}

  void on_event(const Event& event) override;
  void close() override;

 private:
  void push(std::string line);

  std::ostream& os_;
  std::vector<std::string> events_;
  std::set<int> disk_tids_;     ///< disk tracks seen (tid = disk + 1)
  std::set<int> service_tids_;  ///< service client lanes seen (pid 3)
  bool app_track_ = false;    ///< tid 0 used (spans / global events)
  bool closed_ = false;
};

/// Per-disk power-state residency timeline:
///   disk,state,level,start_ms,end_ms,duration_ms,energy_j
/// Adjacent segments with the same (disk, state, level) are merged; rows
/// are sorted by (disk, start) on close.
class TimelineCsvSink final : public EventSink {
 public:
  explicit TimelineCsvSink(std::ostream& os) : os_(os) {}

  void on_event(const Event& event) override;
  void close() override;

 private:
  struct Row {
    int disk = 0;
    disk::PowerState state = disk::PowerState::kIdle;
    int level = 0;
    TimeMs start = 0;
    TimeMs end = 0;
    Joules energy_j = 0;
  };

  std::ostream& os_;
  std::map<int, std::vector<Row>> rows_;  ///< per disk, in emission order
  bool closed_ = false;
};

/// Counts events per kind; the test / bench sink.
class CountingSink final : public EventSink {
 public:
  void on_event(const Event& event) override;

  std::int64_t total() const { return total_; }
  std::int64_t count(EventKind kind) const;

 private:
  std::map<EventKind, std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace sdpm::obs
