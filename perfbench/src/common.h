// Shared plumbing of the end-to-end benchmark: the command line, the result
// line, clocks and quantiles, seeded job specs, and the in-memory span log
// of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/job_spec.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = the paper configuration (JobSpec defaults)
  double seconds = 10;
  bool trace = false;
  /// Scratch directory (inside the checkout) for spans, sockets and state.
  std::string work_dir = ".bench_build";
  /// Recorded outcomes of the default seed (paper_cold).
  std::string reference;
  /// When set, paper_cold writes its default-seed outcomes here and exits.
  std::string record_reference;
};

/// What one workload run reports.  The last stdout line is its JSON form.
class Outcome {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed check: the run is no longer correct.
  void fail(const std::string& why);
  void info(const std::string& line) { info_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Print the info lines, the check failures (stderr) and the result line.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> info_;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Each item's fastest sample: samples[i] holds item i's latency per pass.
std::vector<double> fastest(const std::vector<std::vector<double>>& samples);

/// Sum of `values`.
double sum(const std::vector<double>& values);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Pin the process to `workers`: the default worker count of the system's
/// thread pools (set_default_jobs) and glibc's malloc arena count, so that
/// neither the pools nor peak RSS depend on the host or on which arenas a
/// run's short-lived pool threads happen to get.
void pin_workers(unsigned workers);

/// Deterministic non-negative 47-bit value for (seed, stream, index).
std::int64_t derive(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index);

/// Move the calling thread (and the threads it starts later) to the
/// `pass`-th CPU it may run on, cycling.  Single-threaded workloads rotate
/// their passes over every CPU: another tenant of the host slows one CPU at
/// a time, and the fastest pass then still comes from an idle one.
/// Returns the CPU chosen.
int rotate_cpu(int pass);

/// A paper-default job spec on `benchmark`.  Seed 0 keeps the JobSpec
/// default noise seeds; any other seed draws noise_seed/profile_seed for
/// job `index` from it.
sdpm::api::JobSpec seeded_spec(const std::string& benchmark,
                               std::uint64_t seed, std::uint64_t index);

/// Times repeated set-ups of the system under test.  The first run() is a
/// warm-up (first-touch page faults, lazy statics) and is not recorded;
/// spreading the later runs over the measurement window keeps the median
/// clear of a passing slow phase of the machine.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}
  void run();
  double median_s() const { return median(seconds_); }

 private:
  std::function<void()> setup_;
  bool warm_ = false;
  std::vector<double> seconds_;
};

/// Wall-clock spans around calls into the system's layers.  A span's layer
/// is its name up to the first '.'; spans nest by call order.  Not thread
/// safe: one thread records.  Everything stays in memory until
/// write_chrome().
class SpanLog {
 public:
  struct Span {
    std::string name;
    double t0_ms = 0;
    double t1_ms = 0;
    int parent = -1;
    int job = 0;
    int lane = 0;
  };

  SpanLog();

  /// Record a top-level span [t0, t1) timed elsewhere (client round trips).
  void record(const std::string& name, Clock::time_point t0,
              Clock::time_point t1, int job, int lane);

  /// Open a span nested under the innermost open one (single thread).
  int begin(const char* name, int job);
  /// Close span `id`, optionally renaming it once its outcome is known.
  void end(int id, const char* rename = nullptr);

  /// Run `fn` inside a span nested under the innermost open span.
  template <class F>
  decltype(auto) time(const char* name, int job, F&& fn) {
    const int id = begin(name, job);
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->end(id); }
    } closer{this, id};
    return fn();
  }

  /// Self time (span minus its children) summed per span name.
  std::map<std::string, double> self_ms_by_name() const;
  /// Self time summed per layer, excluding the benchmark's own "bench" spans.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Chrome trace-event JSON of every span.
  void write_chrome(const std::string& path) const;

 private:
  double since_epoch_ms(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// Per-layer metric names in the order the result line lists them, with
/// their units.  Every traced run prints all of them.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill every per-layer metric of `out` from `values`; names absent from
/// `values` were not exercised by the workload and read 0.
void emit_per_layer(Outcome& out, const std::map<std::string, double>& values);

/// Print a sorted self-time breakdown to stdout as info lines.
void describe_breakdown(Outcome& out, const std::map<std::string, double>& ms,
                        double wall_ms);

void run_paper_cold(const Args& args, Outcome& out);
void run_service_mixed(const Args& args, Outcome& out);
void run_analyze_fix(const Args& args, Outcome& out);

}  // namespace perfbench
