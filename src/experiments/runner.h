// Experiment runner: evaluates one benchmark under one configuration
// across the paper's seven schemes (§4.2).
//
// Orchestration per scheme:
//   Base          closed-loop replay, no policy.
//   TPM / DRPM    closed-loop replay under the reactive policy.
//   ITPM / IDRPM  analytic oracle on the Base run's busy timeline.
//   CMTPM/CMDRPM  compiler pipeline: DAP analysis on the (transformed)
//                 program, power-call insertion against the *measured*
//                 per-nest timing (profile run), then closed-loop replay of
//                 the re-generated trace under the proactive policy.
//
// The measured timing mirrors the paper's methodology: per-iteration cycle
// estimates come from profiling the actual execution (so they include
// amortized I/O time), and the gap between the profiling run and the
// production run — modelled as independent per-nest log-normal factors —
// is what produces Table 3's mispredicted disk speeds.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "disk/parameters.h"
#include "sim/faults.h"
#include "sim/report.h"
#include "trace/generator.h"
#include "trace/stall_aware.h"
#include "util/once.h"
#include "workloads/benchmarks.h"

namespace sdpm::obs {
class EventTracer;
}

namespace sdpm::experiments {

enum class Scheme { kBase, kTpm, kItpm, kDrpm, kIdrpm, kCmtpm, kCmdrpm };

const char* to_string(Scheme scheme);

/// The seven schemes in the paper's presentation order.
std::vector<Scheme> all_schemes();

struct ExperimentConfig {
  int total_disks = 8;
  layout::Striping striping{};  ///< Table 1 default: (0, 8, 64 KB)
  disk::DiskParameters disk = disk::DiskParameters::ultrastar_36z15();
  trace::GeneratorOptions gen;  ///< block/cache/Tm settings
  core::Transformation transform = core::Transformation::kNone;
  /// Per-nest multiplicative timing variation of the production run.
  trace::CycleNoise actual_noise = trace::CycleNoise::paper_default();
  /// Same for the profiling run the compiler's estimates come from.
  trace::CycleNoise profile_noise{0.20, 0x9e0f11e5eedULL};
  std::int64_t call_site_granularity = 1;
  bool preactivate = true;
  Bytes tile_bytes = 256 * 1024;
  /// Fault injection applied to every simulated scheme (Base included, so
  /// normalization stays against the same faulty machine).  Default: none.
  sim::FaultConfig faults;
  /// Observability tracer (not owned).  Attached only to the replay of
  /// `trace_scheme` so a multi-scheme evaluation exports one clean event
  /// stream.  ITPM/IDRPM are analytic oracles with no replay and cannot be
  /// traced.  Default nullptr: every replay stays untraced.
  obs::EventTracer* tracer = nullptr;
  Scheme trace_scheme = Scheme::kBase;
};

/// The compiler options `config` implies: the one lowering that Runner,
/// api::Session and the CLI's codegen compile with.
core::CompilerOptions compiler_options(const ExperimentConfig& config);

struct SchemeResult {
  Scheme scheme = Scheme::kBase;
  Joules energy_j = 0;
  TimeMs execution_ms = 0;
  std::int64_t requests = 0;
  double normalized_energy = 1.0;  ///< vs Base under the same config
  double normalized_time = 1.0;
  /// Table 3 statistic; only meaningful for CM schemes.
  std::optional<double> mispredict_pct;
  std::int64_t power_calls = 0;  ///< directives inserted (CM schemes)
};

/// Evaluates one (benchmark, configuration) cell.  The Base run, the trace
/// and the measured timelines are computed once and shared by all schemes.
/// Traces come from the process-wide content-keyed TraceCache, so repeated
/// cells with identical generation inputs reuse one generation.
///
/// Thread safety: after construction, run() may be called concurrently for
/// different schemes — the lazy shared state (Base run, memoized measured
/// timelines) is initialized under internal synchronization and is a pure
/// function of the configuration, so results do not depend on interleaving.
class Runner {
 public:
  Runner(const workloads::Benchmark& benchmark, ExperimentConfig config);

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// The transformed program under evaluation.
  const ir::Program& program() const { return compiled_.program; }

  /// The Base simulation (runs lazily, cached).
  const sim::SimReport& base_report();

  /// The production-run trace without power calls (shared by
  /// Base/TPM/DRPM): the compiled program on its layout under the actual
  /// noise, from the TraceCache.  Generated on first use; needs no Base run.
  const trace::Trace& trace();

  /// The re-generated trace with the compiler's power calls inserted for
  /// `mode`, as used by the CM schemes; `calls_inserted` (optional)
  /// receives the directive count.
  trace::Trace cm_trace(core::PowerMode mode,
                        std::int64_t* calls_inserted = nullptr);

  /// Evaluate one scheme.  Thread-safe: independent schemes may run
  /// concurrently on pool workers (SweepEngine fans them out).
  SchemeResult run(Scheme scheme);

 private:
  void ensure_base();
  /// config_.tracer when `scheme` is the one selected for tracing.
  obs::EventTracer* tracer_for(Scheme scheme) const {
    return config_.trace_scheme == scheme ? config_.tracer : nullptr;
  }
  /// The stall-aware measured timeline for a given compute-noise model:
  /// noisy compute plus the Base run's per-request stalls at their exact
  /// iterations.  Memoized per (sigma, seed); the returned reference stays
  /// valid for the Runner's lifetime.
  const trace::StallAwareTimeline& measured_timeline(
      const trace::CycleNoise& noise) const;
  /// Run the compiler's power-call scheduler for `mode` against the
  /// profile-noise estimate.
  core::ScheduleResult schedule_cm(core::PowerMode mode);
  /// The production-run trace of `program` (actual noise), via the cache.
  std::shared_ptr<const trace::Trace> generate_actual(
      const ir::Program& program) const;

  workloads::Benchmark benchmark_;
  ExperimentConfig config_;
  core::CompileOutput compiled_;
  std::optional<layout::LayoutTable> layout_;
  OnceState trace_once_;  // a failed generation rethrows to every caller
  std::shared_ptr<const trace::Trace> trace_;  // without power calls
  OnceState base_once_;   // likewise for the Base run
  std::optional<sim::SimReport> base_;
  mutable std::mutex timeline_mutex_;
  mutable std::map<std::pair<std::uint64_t, std::uint64_t>,
                   std::unique_ptr<const trace::StallAwareTimeline>>
      timelines_;  // measured timelines by noise (sigma bits, seed)
};

}  // namespace sdpm::experiments
