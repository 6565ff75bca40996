#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Outcome::fail(const std::string& why) { failures_.push_back(why); }

void Outcome::print() const {
  for (const std::string& line : info_) std::printf("# %s\n", line.c_str());
  for (const std::string& why : failures_) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  sdpm::Json metrics = sdpm::Json::object();
  for (const auto& [name, value_unit] : metrics_) {
    metrics.set(name, sdpm::Json::object()
                          .set("value", value_unit.first)
                          .set("unit", value_unit.second));
  }
  sdpm::Json line = sdpm::Json::object();
  line.set("correct", correct())
      .set("attempted", attempted)
      .set("failed", failed)
      .set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> fastest(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const std::vector<double>& item : samples) {
    out.push_back(quantile(item, 0.0));
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void pin_workers(unsigned workers) {
  sdpm::set_default_jobs(workers);
  mallopt(M_ARENA_MAX, static_cast<int>(workers));
}

int rotate_cpu(int pass) {
  static const std::vector<int> cpus = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> ids;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) ids.push_back(cpu);
      }
    }
    return ids;
  }();
  if (cpus.empty()) return -1;
  const int cpu = cpus[static_cast<std::size_t>(pass) % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

std::int64_t derive(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index) {
  sdpm::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL ^
                       (stream << 48) ^ index);
  rng.next_u64();
  return static_cast<std::int64_t>(rng.next_u64() >> 17);
}

sdpm::api::JobSpec seeded_spec(const std::string& benchmark,
                               std::uint64_t seed, std::uint64_t index) {
  sdpm::api::JobSpec spec;
  spec.benchmark = benchmark;
  if (seed != 0) {
    spec.noise_seed = derive(seed, 1, index);
    spec.profile_seed = derive(seed, 2, index);
  }
  spec.validate();
  return spec;
}

void SetupTimer::run() {
  const Clock::time_point t0 = Clock::now();
  setup_();
  if (warm_) seconds_.push_back(ms_between(t0, Clock::now()) / 1e3);
  warm_ = true;
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double SpanLog::since_epoch_ms(Clock::time_point t) const {
  return ms_between(epoch_, t);
}

int SpanLog::begin(const char* name, int job) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  span.t0_ms = since_epoch_ms(Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id, const char* rename) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.t1_ms = since_epoch_ms(Clock::now());
  if (rename != nullptr) span.name = rename;
  open_.pop_back();
}

void SpanLog::record(const std::string& name, Clock::time_point t0,
                     Clock::time_point t1, int job, int lane) {
  Span span;
  span.name = name;
  span.t0_ms = since_epoch_ms(t0);
  span.t1_ms = since_epoch_ms(t1);
  span.job = job;
  span.lane = lane;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanLog::self_ms_by_name() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.t1_ms - span.t0_ms;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].t1_ms - spans_[i].t0_ms - child_ms[i];
  }
  return self;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, ms] : self_ms_by_name()) {
    const std::string layer = name.substr(0, name.find('.'));
    if (layer != "bench") layers[layer] += ms;
  }
  return layers;
}

void SpanLog::write_chrome(const std::string& path) const {
  sdpm::Json events = sdpm::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    sdpm::Json args = sdpm::Json::object();
    args.set("id", static_cast<std::int64_t>(i))
        .set("parent", static_cast<std::int64_t>(span.parent))
        .set("job", static_cast<std::int64_t>(span.job));
    events.push_back(
        sdpm::Json::object()
            .set("name", span.name)
            .set("cat", span.name.substr(0, span.name.find('.')))
            .set("ph", "X")
            .set("pid", static_cast<std::int64_t>(1))
            .set("tid", static_cast<std::int64_t>(span.lane))
            .set("ts", span.t0_ms * 1e3)
            .set("dur", (span.t1_ms - span.t0_ms) * 1e3)
            .set("args", std::move(args)));
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  os << sdpm::Json::object().set("traceEvents", std::move(events)).dump()
     << "\n";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // Workload-specific end-to-end figures (see perfbench/README.md).
      {"hit_p50_ms", "ms"},
      {"relabel_p50_ms", "ms"},
      {"miss_p50_ms", "ms"},
      {"analyses_per_s", "1/s"},
      {"repairs_per_s", "1/s"},
      {"fail_ratio", "1"},
      // trace
      {"trace.generate_ms", "ms"},
      {"trace.requests_generated", "count"},
      {"trace.timeline_ms", "ms"},
      {"trace.access_walks", "count"},
      // core
      {"core.compile_ms", "ms"},
      {"core.schedule_ms", "ms"},
      {"core.calls_inserted", "count"},
      {"core.mispredict_ms", "ms"},
      {"core.compile_sched_ms", "ms"},
      // experiments
      {"experiments.trace_cache_hits", "count"},
      {"experiments.trace_cache_misses", "count"},
      // sim
      {"sim.replay_ms", "ms"},
      {"sim.requests_replayed", "count"},
      // policy
      {"policy.oracle_ms", "ms"},
      // analysis
      {"analysis.passes_ms", "ms"},
      {"analysis.certify_ms", "ms"},
      {"analysis.render_ms", "ms"},
      {"analysis.repair_ms", "ms"},
      {"analysis.repair_rounds", "count"},
      {"analysis.fixits_applied", "count"},
      {"analysis.diagnostics", "count"},
      // api
      {"api.spec_decode_ms", "ms"},
      {"api.result_encode_ms", "ms"},
      // service (client spans + the daemon's telemetry and stats ops)
      {"client.submit_p50_ms", "ms"},
      {"client.wait_p50_ms", "ms"},
      {"service.admit_p50_ms", "ms"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.dispatch_p50_ms", "ms"},
      {"service.eval_p50_ms", "ms"},
      {"service.eval_p99_ms", "ms"},
      {"service.respond_p50_ms", "ms"},
      {"service.e2e_p50_ms", "ms"},
      {"service.journal_append_p50_ms", "ms"},
      {"service.store_get_p50_ms", "ms"},
      {"service.store_put_p50_ms", "ms"},
      {"service.store_hits", "count"},
      {"service.store_misses", "count"},
      {"service.journal_appends", "count"},
      {"mix.hit_share", "1"},
      {"mix.relabel_share", "1"},
      {"mix.fresh_share", "1"},
      // the breakdown's own validation
      {"obs.trace_overhead_pct", "%"},
      {"bench.unaccounted_pct", "%"},
  };
  return kMetrics;
}

void emit_per_layer(Outcome& out, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    out.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : per_layer_metrics()) known |= entry.first == name;
    if (!known) out.fail("workload produced unlisted metric " + name);
  }
}

void describe_breakdown(Outcome& out, const std::map<std::string, double>& ms,
                        double wall_ms) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, value] : ms) rows.push_back({value, name});
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [value, name] : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "self %-32s %12.3f ms %6.2f%%",
                  name.c_str(), value,
                  wall_ms > 0 ? 100.0 * value / wall_ms : 0.0);
    out.info(line);
  }
}

}  // namespace perfbench
