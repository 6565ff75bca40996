#include "obs/metrics.h"

#include <sstream>

#include "util/strings.h"

namespace sdpm::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(0);
  return *slot;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double sample) {
  std::lock_guard lock(mutex_);
  histograms_.try_emplace(name).first->second.add(sample);
}

std::int64_t MetricsRegistry::Snapshot::counter(
    const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->load(std::memory_order_relaxed);
  }
  snap.gauges = gauges_;
  for (const auto& [name, hist] : histograms_) {
    HistogramStats stats;
    stats.count = hist.count();
    stats.mean = hist.mean();
    stats.sum = hist.sum();
    stats.p50 = hist.median();
    stats.p95 = hist.p95();
    stats.p99 = hist.p99();
    stats.max = hist.max();
    snap.histograms[name] = stats;
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  const auto num = [](double v) { return str_printf("%.9g", v); };
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << num(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << h.count << ", \"mean\": " << num(h.mean) << ", \"p50\": "
       << num(h.p50) << ", \"p95\": " << num(h.p95) << ", \"p99\": "
       << num(h.p99) << ", \"max\": " << num(h.max) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}";
  return os.str();
}

void MetricsRegistry::reset_for_testing() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, value] : gauges_) value = 0;
  for (auto& [name, hist] : histograms_) hist = Histogram();
}

}  // namespace sdpm::obs
