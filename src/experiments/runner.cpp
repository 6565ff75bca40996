#include "experiments/runner.h"

#include <bit>
#include <cmath>

#include "core/mispredict.h"
#include "core/schedule.h"
#include "experiments/trace_cache.h"
#include "obs/metrics.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/oracle.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace sdpm::experiments {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBase:
      return "Base";
    case Scheme::kTpm:
      return "TPM";
    case Scheme::kItpm:
      return "ITPM";
    case Scheme::kDrpm:
      return "DRPM";
    case Scheme::kIdrpm:
      return "IDRPM";
    case Scheme::kCmtpm:
      return "CMTPM";
    case Scheme::kCmdrpm:
      return "CMDRPM";
  }
  return "?";
}

std::vector<Scheme> all_schemes() {
  return {Scheme::kBase, Scheme::kTpm,    Scheme::kItpm, Scheme::kDrpm,
          Scheme::kIdrpm, Scheme::kCmtpm, Scheme::kCmdrpm};
}

core::CompilerOptions compiler_options(const ExperimentConfig& config) {
  core::CompilerOptions co;
  co.total_disks = config.total_disks;
  co.base_striping = config.striping;
  co.disk_params = config.disk;
  co.access = config.gen;
  co.call_site_granularity = config.call_site_granularity;
  co.preactivate = config.preactivate;
  co.tile_bytes = config.tile_bytes;
  return co;
}

Runner::Runner(const workloads::Benchmark& benchmark,
               ExperimentConfig config)
    : benchmark_(benchmark), config_(std::move(config)) {
  compiled_ = core::compile(benchmark_.program, config_.transform,
                            std::nullopt, compiler_options(config_));
  layout_.emplace(compiled_.program, compiled_.striping,
                  config_.total_disks);
}

const trace::Trace& Runner::trace() {
  trace_once_.call([this] { trace_ = generate_actual(compiled_.program); });
  return *trace_;
}

void Runner::ensure_base() {
  base_once_.call([this] {
    policy::BasePolicy policy;
    sim::SimOptions options;
    options.mode = sim::ReplayMode::kClosedLoop;
    options.faults = config_.faults;
    // The measured per-nest timelines consume the Base run's per-request
    // stall vector, and the ITPM/IDRPM oracles + idle-gap profilers walk
    // its busy periods; no other scheme's replay needs either.
    options.capture_responses = true;
    options.capture_busy_periods = true;
    options.tracer = tracer_for(Scheme::kBase);
    base_ = sim::simulate(trace(), config_.disk, policy, options);
  });
}

const sim::SimReport& Runner::base_report() {
  ensure_base();
  return *base_;
}

core::ScheduleResult Runner::schedule_cm(core::PowerMode mode) {
  ensure_base();
  const trace::StallAwareTimeline& estimate =
      measured_timeline(config_.profile_noise);
  core::SchedulerOptions so;
  so.mode = mode;
  so.access = config_.gen;
  so.call_site_granularity = config_.call_site_granularity;
  so.preactivate = config_.preactivate;
  so.estimate = &estimate;
  return core::schedule_power_calls(compiled_.program, *layout_,
                                    config_.disk, so);
}

std::shared_ptr<const trace::Trace> Runner::generate_actual(
    const ir::Program& program) const {
  trace::GeneratorOptions gen = config_.gen;
  gen.noise = config_.actual_noise;
  return TraceCache::global().get_or_generate(program, *layout_, gen);
}

trace::Trace Runner::cm_trace(core::PowerMode mode,
                              std::int64_t* calls_inserted) {
  const core::ScheduleResult scheduled = schedule_cm(mode);
  if (calls_inserted != nullptr) *calls_inserted = scheduled.calls_inserted;
  return *generate_actual(scheduled.program);
}

const trace::StallAwareTimeline& Runner::measured_timeline(
    const trace::CycleNoise& noise) const {
  SDPM_REQUIRE(base_.has_value(), "Base run required first");
  const std::pair<std::uint64_t, std::uint64_t> key{
      std::bit_cast<std::uint64_t>(noise.sigma), noise.seed};

  std::lock_guard lock(timeline_mutex_);
  const auto it = timelines_.find(key);
  if (it != timelines_.end()) {
    static obs::MetricsRegistry::Counter& hits =
        obs::MetricsRegistry::global().counter("runner.timeline_cache_hits");
    hits.fetch_add(1, std::memory_order_relaxed);
    return *it->second;
  }
  const trace::Timeline compute = trace::Timeline::with_noise(
      compiled_.program, noise, config_.gen.clock_hz);
  std::vector<std::int64_t> miss_iters;
  miss_iters.reserve(trace_->requests.size());
  for (const trace::Request& r : trace_->requests) {
    miss_iters.push_back(r.global_iter);
  }
  auto timeline = std::make_unique<const trace::StallAwareTimeline>(
      compute, std::move(miss_iters), base_->responses);
  return *timelines_.emplace(key, std::move(timeline)).first->second;
}

SchemeResult Runner::run(Scheme scheme) {
  ensure_base();
  SchemeResult result;
  result.scheme = scheme;
  result.requests = base_->requests;

  switch (scheme) {
    case Scheme::kBase: {
      result.energy_j = base_->total_energy;
      result.execution_ms = base_->execution_ms;
      break;
    }
    case Scheme::kTpm: {
      policy::TpmPolicy policy;
      sim::SimOptions options;
      options.faults = config_.faults;
      options.tracer = tracer_for(scheme);
      const sim::SimReport report =
          sim::simulate(*trace_, config_.disk, policy, options);
      result.energy_j = report.total_energy;
      result.execution_ms = report.execution_ms;
      break;
    }
    case Scheme::kDrpm: {
      policy::DrpmPolicy policy;
      sim::SimOptions options;
      options.faults = config_.faults;
      options.tracer = tracer_for(scheme);
      const sim::SimReport report =
          sim::simulate(*trace_, config_.disk, policy, options);
      result.energy_j = report.total_energy;
      result.execution_ms = report.execution_ms;
      break;
    }
    case Scheme::kItpm: {
      const policy::OracleReport report =
          policy::ideal_tpm(*base_, config_.disk);
      result.energy_j = report.total_energy;
      result.execution_ms = report.execution_ms;
      break;
    }
    case Scheme::kIdrpm: {
      const policy::OracleReport report =
          policy::ideal_drpm(*base_, config_.disk);
      result.energy_j = report.total_energy;
      result.execution_ms = report.execution_ms;
      break;
    }
    case Scheme::kCmtpm:
    case Scheme::kCmdrpm: {
      const core::PowerMode mode = scheme == Scheme::kCmtpm
                                       ? core::PowerMode::kTpm
                                       : core::PowerMode::kDrpm;
      const core::ScheduleResult scheduled = schedule_cm(mode);
      result.power_calls = scheduled.calls_inserted;
      const std::shared_ptr<const trace::Trace> cm =
          generate_actual(scheduled.program);

      policy::ProactivePolicy policy(scheme == Scheme::kCmtpm ? "CMTPM"
                                                              : "CMDRPM");
      sim::SimOptions options;
      options.faults = config_.faults;
      options.tracer = tracer_for(scheme);
      const sim::SimReport report =
          sim::simulate(*cm, config_.disk, policy, options);
      result.energy_j = report.total_energy;
      result.execution_ms = report.execution_ms;

      const trace::StallAwareTimeline& actual =
          measured_timeline(config_.actual_noise);
      result.mispredict_pct =
          core::compare_with_oracle(scheduled.plans, actual, config_.disk,
                                    mode)
              .percent();
      break;
    }
  }

  result.normalized_energy = result.energy_j / base_->total_energy;
  result.normalized_time = result.execution_ms / base_->execution_ms;
  return result;
}

}  // namespace sdpm::experiments
