#include "obs/prometheus.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/strings.h"

namespace sdpm::obs {

namespace {

std::string num(double v) { return str_printf("%.9g", v); }

std::string label_block(const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    out += k + "=\"" + v + "\"";
    first = false;
  }
  out += "}";
  return out;
}

std::string with_quantile(std::map<std::string, std::string> labels,
                          const char* q) {
  labels["quantile"] = q;
  return label_block(labels);
}

void render_summary(std::ostringstream& os, const std::string& name,
                    const std::map<std::string, std::string>& labels,
                    const LatencyHistogram::Quantiles& q, bool emit_type) {
  if (emit_type) os << "# TYPE " << name << " summary\n";
  os << name << with_quantile(labels, "0.5") << " " << num(q.p50) << "\n";
  os << name << with_quantile(labels, "0.9") << " " << num(q.p90) << "\n";
  os << name << with_quantile(labels, "0.99") << " " << num(q.p99) << "\n";
  os << name << with_quantile(labels, "0.999") << " " << num(q.p999) << "\n";
  os << name << "_sum" << label_block(labels) << " " << num(q.sum) << "\n";
  os << name << "_count" << label_block(labels) << " " << q.count << "\n";
}

}  // namespace

std::string prometheus_name(const std::string& dotted) {
  std::string out = "sdpm_";
  for (const char c : dotted) {
    const auto uc = static_cast<unsigned char>(c);
    out += (std::isalnum(uc) != 0) ? c : '_';
  }
  return out;
}

std::string render_prometheus(const MetricsRegistry::Snapshot& snapshot,
                              const std::vector<PromSummary>& extra) {
  std::ostringstream os;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " counter\n" << pn << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " gauge\n" << pn << " " << num(value) << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    // Registry histograms carry p50/p95/p99, not the PromSummary set.
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " summary\n";
    os << pn << "{quantile=\"0.5\"} " << num(h.p50) << "\n";
    os << pn << "{quantile=\"0.95\"} " << num(h.p95) << "\n";
    os << pn << "{quantile=\"0.99\"} " << num(h.p99) << "\n";
    os << pn << "_sum " << num(h.sum) << "\n";
    os << pn << "_count " << h.count << "\n";
  }
  // `extra` summaries arrive grouped by name (the telemetry renderer emits
  // one PromSummary per stage, all sharing one metric name with distinct
  // labels); emit the TYPE line once per name.
  std::string last_name;
  for (const PromSummary& s : extra) {
    const std::string pn = prometheus_name(s.name);
    render_summary(os, pn, s.labels, s.quantiles, pn != last_name);
    last_name = pn;
  }
  return os.str();
}

}  // namespace sdpm::obs
