#include "obs/sinks.h"

#include <algorithm>
#include <ostream>

#include "util/strings.h"

namespace sdpm::obs {

namespace {

constexpr TimeMs kMergeEps = 1e-6;

/// Deterministic shortest-ish double rendering: same bits in, same text
/// out, on every platform we build for (C locale, no hex floats).
std::string num(double v) { return str_printf("%.9g", v); }

/// Microsecond timestamp for the Chrome exporter (inputs are simulated or
/// wall milliseconds).
std::string ts_us(TimeMs ms) { return str_printf("%.3f", ms * 1000.0); }

std::string escape(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonlSink

void JsonlSink::on_event(const Event& e) {
  os_ << "{\"kind\":\"" << to_string(e.kind) << "\",\"disk\":" << e.disk
      << ",\"t0\":" << num(e.t0) << ",\"t1\":" << num(e.t1) << ",\"state\":\""
      << disk::to_string(e.state) << "\",\"level\":" << e.level
      << ",\"energy_j\":" << num(e.energy_j) << ",\"value\":" << num(e.value)
      << ",\"value2\":" << num(e.value2) << ",\"label\":\"" << escape(e.label)
      << "\"";
  // Appended only when set, so untraced streams stay byte-identical to
  // the pre-trace_id format pinned in test_obs.
  if (e.trace_id != 0) {
    os_ << ",\"trace_id\":\"" << str_printf("%016llx",
                                            static_cast<unsigned long long>(
                                                e.trace_id))
        << "\"";
  }
  os_ << "}\n";
}

void JsonlSink::close() { os_.flush(); }

// ---------------------------------------------------------------------------
// ChromeTraceSink

void ChromeTraceSink::push(std::string line) {
  events_.push_back(std::move(line));
}

void ChromeTraceSink::on_event(const Event& e) {
  const int tid = e.disk >= 0 ? e.disk + 1 : 0;
  if (e.disk >= 0) {
    disk_tids_.insert(tid);
  }
  switch (e.kind) {
    case EventKind::kStateSegment:
      push(str_printf("{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"dur\":%s,\"name\":\"%s\",\"cat\":\"power\","
                      "\"args\":{\"level\":%d,\"energy_j\":%s}}",
                      tid, ts_us(e.t0).c_str(), ts_us(e.t1 - e.t0).c_str(),
                      disk::to_string(e.state), e.level,
                      num(e.energy_j).c_str()));
      break;
    case EventKind::kService:
      push(str_printf("{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"dur\":%s,\"name\":\"service\",\"cat\":\"io\","
                      "\"args\":{\"stall_ms\":%s,\"bytes\":%s}}",
                      tid, ts_us(e.t0).c_str(), ts_us(e.t1 - e.t0).c_str(),
                      num(e.value).c_str(), num(e.value2).c_str()));
      break;
    case EventKind::kDirective:
    case EventKind::kDirectiveDropped:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"%s%s\",\"cat\":\"directive\","
                      "\"args\":{\"level\":%d}}",
                      tid, ts_us(e.t0).c_str(), escape(e.label).c_str(),
                      e.kind == EventKind::kDirectiveDropped ? " (dropped)"
                                                             : "",
                      e.level));
      break;
    case EventKind::kDemandSpinUp:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"demand_spin_up\","
                      "\"cat\":\"power\",\"args\":{}}",
                      tid, ts_us(e.t0).c_str()));
      break;
    case EventKind::kSpinUpRetry:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"spin_up_retry\","
                      "\"cat\":\"fault\",\"args\":{\"backoff_ms\":%s}}",
                      tid, ts_us(e.t0).c_str(), num(e.value).c_str()));
      break;
    case EventKind::kMediaError:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"media_error\","
                      "\"cat\":\"fault\",\"args\":{\"new_remap\":%s}}",
                      tid, ts_us(e.t0).c_str(), num(e.value).c_str()));
      break;
    case EventKind::kBreakEven:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"break_even:%s\","
                      "\"cat\":\"policy\",\"args\":{\"idle_ms\":%s,"
                      "\"threshold_ms\":%s}}",
                      tid, ts_us(e.t0).c_str(), escape(e.label).c_str(),
                      num(e.value).c_str(), num(e.value2).c_str()));
      break;
    case EventKind::kRpmWindow:
      push(str_printf("{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                      "\"s\":\"t\",\"name\":\"rpm_window:%s\","
                      "\"cat\":\"policy\",\"args\":{\"delta\":%s,"
                      "\"level\":%d}}",
                      tid, ts_us(e.t0).c_str(), escape(e.label).c_str(),
                      num(e.value).c_str(), e.level));
      break;
    case EventKind::kSpanBegin:
    case EventKind::kSpanEnd:
      app_track_ = true;
      if (e.trace_id != 0) {
        push(str_printf("{\"ph\":\"%s\",\"pid\":1,\"tid\":0,\"ts\":%s,"
                        "\"name\":\"%s\",\"cat\":\"span\","
                        "\"args\":{\"trace_id\":\"%016llx\"}}",
                        e.kind == EventKind::kSpanBegin ? "B" : "E",
                        ts_us(e.t0).c_str(), escape(e.label).c_str(),
                        static_cast<unsigned long long>(e.trace_id)));
      } else {
        push(str_printf("{\"ph\":\"%s\",\"pid\":1,\"tid\":0,\"ts\":%s,"
                        "\"name\":\"%s\",\"cat\":\"span\"}",
                        e.kind == EventKind::kSpanBegin ? "B" : "E",
                        ts_us(e.t0).c_str(), escape(e.label).c_str()));
      }
      break;
    case EventKind::kServiceStage: {
      const int lane = e.level;
      service_tids_.insert(lane);
      push(str_printf("{\"ph\":\"X\",\"pid\":3,\"tid\":%d,\"ts\":%s,"
                      "\"dur\":%s,\"name\":\"%s\",\"cat\":\"service\","
                      "\"args\":{\"job\":%lld,\"trace_id\":\"%016llx\"}}",
                      3000 + lane, ts_us(e.t0).c_str(),
                      ts_us(e.t1 - e.t0).c_str(), escape(e.label).c_str(),
                      static_cast<long long>(e.value),
                      static_cast<unsigned long long>(e.trace_id)));
      break;
    }
  }
}

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "{\"traceEvents\":[";
  bool first = true;
  const auto emit_line = [&](const std::string& line) {
    if (!first) os_ << ",";
    first = false;
    os_ << "\n" << line;
  };
  emit_line("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"simulation (simulated time)\"}}");
  if (app_track_) {
    emit_line("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
              "\"args\":{\"name\":\"application\"}}");
  }
  for (const int tid : disk_tids_) {
    emit_line(str_printf("{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                         "\"name\":\"thread_name\","
                         "\"args\":{\"name\":\"disk %d\"}}",
                         tid, tid - 1));
  }
  if (!service_tids_.empty()) {
    emit_line("{\"ph\":\"M\",\"pid\":3,\"tid\":3000,"
              "\"name\":\"process_name\","
              "\"args\":{\"name\":\"service (wall time)\"}}");
    for (const int lane : service_tids_) {
      emit_line(str_printf("{\"ph\":\"M\",\"pid\":3,\"tid\":%d,"
                           "\"name\":\"thread_name\","
                           "\"args\":{\"name\":\"client lane %d\"}}",
                           3000 + lane, lane));
    }
  }
  for (const std::string& line : events_) emit_line(line);
  os_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  os_.flush();
  events_.clear();
}

// ---------------------------------------------------------------------------
// TimelineCsvSink

void TimelineCsvSink::on_event(const Event& e) {
  if (e.kind != EventKind::kStateSegment || e.disk < 0) return;
  std::vector<Row>& rows = rows_[e.disk];
  if (!rows.empty()) {
    Row& last = rows.back();
    if (last.state == e.state && last.level == e.level &&
        e.t0 <= last.end + kMergeEps) {
      last.end = std::max(last.end, e.t1);
      last.energy_j += e.energy_j;
      return;
    }
  }
  rows.push_back(Row{e.disk, e.state, e.level, e.t0, e.t1, e.energy_j});
}

void TimelineCsvSink::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "disk,state,level,start_ms,end_ms,duration_ms,energy_j\n";
  for (auto& [disk_id, rows] : rows_) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.start < b.start; });
    for (const Row& r : rows) {
      os_ << disk_id << "," << disk::to_string(r.state) << "," << r.level
          << "," << num(r.start) << "," << num(r.end) << ","
          << num(r.end - r.start) << "," << num(r.energy_j) << "\n";
    }
  }
  os_.flush();
  rows_.clear();
}

// ---------------------------------------------------------------------------
// CountingSink

void CountingSink::on_event(const Event& e) {
  ++counts_[e.kind];
  ++total_;
}

std::int64_t CountingSink::count(EventKind kind) const {
  const auto it = counts_.find(kind);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace sdpm::obs
