// Every power-call schedule against committed digests.
//
// tests/golden/schedules.json pins core::schedule_power_calls and the
// Table 3 check (core::compare_with_oracle) for the six Table 2 benchmarks
// x {none, LF, TL, LF+DL, TL+DL} x the paper disk and the two presets x
// {CMTPM, CMDRPM} x call-site granularity {1, 4096} x {nominal, measured}
// estimate: 720 schedules.  The measured estimate is built as
// experiments::Runner builds it: the Base replay's per-request responses
// over the profile-noise compute timeline; every schedule is checked
// against the same responses over the actual-noise timeline.  Each entry
// keeps the call count, the plan count, the mispredicted count and a
// 64-bit FNV-1a digest of every directive (nest, flat iteration, kind,
// disk, level) and every plan (disk, begin, end, estimated_ms bits, level,
// acted), so any moved call site or changed gap estimate shows up here.
// A failure names the schedule and the first differing field.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/mispredict.h"
#include "core/schedule.h"
#include "experiments/runner.h"
#include "policy/base.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/stall_aware.h"
#include "util/json.h"
#include "workloads/benchmarks.h"

namespace sdpm {
namespace {

const Json& golden() {
  static const Json doc = [] {
    std::ifstream in(SDPM_GOLDEN_DIR "/schedules.json");
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
  }();
  return doc;
}

/// 64-bit FNV-1a over whole values, each fed as 8 little-endian bytes.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::int64_t>(v)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

  std::string hex() const {
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << hash_;
    return out.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One (benchmark, transform, device) setup: the compiled program, its
/// layout and the two measured timelines the Runner would build.
struct Setup {
  experiments::ExperimentConfig config;
  core::CompileOutput compiled;
  layout::LayoutTable layout;
  trace::StallAwareTimeline profile;
  trace::StallAwareTimeline actual;
};

Setup make_setup(const std::string& benchmark, core::Transformation transform,
                 const std::string& device) {
  experiments::ExperimentConfig config;
  config.disk = disk::DiskParameters::preset(device);
  config.transform = transform;
  core::CompileOutput compiled =
      core::compile(workloads::make_benchmark(benchmark).program, transform,
                    std::nullopt, experiments::compiler_options(config));
  layout::LayoutTable layout = compiled.make_layout_table(config.total_disks);

  trace::GeneratorOptions gen = config.gen;
  gen.noise = config.actual_noise;
  const trace::Trace trace =
      trace::TraceGenerator(compiled.program, layout, gen).generate();
  policy::BasePolicy base_policy;
  sim::SimOptions options;
  options.capture_responses = true;
  const sim::SimReport base =
      sim::simulate(trace, config.disk, base_policy, options);
  const auto measured = [&](const trace::CycleNoise& noise) {
    std::vector<std::int64_t> miss_iters;
    miss_iters.reserve(trace.requests.size());
    for (const trace::Request& r : trace.requests) {
      miss_iters.push_back(r.global_iter);
    }
    return trace::StallAwareTimeline(
        trace::Timeline::with_noise(compiled.program, noise,
                                    config.gen.clock_hz),
        std::move(miss_iters), base.responses);
  };
  trace::StallAwareTimeline profile = measured(config.profile_noise);
  trace::StallAwareTimeline actual = measured(config.actual_noise);
  return Setup{std::move(config), std::move(compiled), std::move(layout),
               std::move(profile), std::move(actual)};
}

/// Schedule one configuration and add the fields a golden entry keeps of
/// it to `entry`.
void summarize(const Setup& s, core::PowerMode mode, std::int64_t granularity,
               bool measured_estimate, Json& entry) {
  core::SchedulerOptions so;
  so.mode = mode;
  so.access = s.config.gen;
  so.call_site_granularity = granularity;
  so.estimate = measured_estimate ? &s.profile : nullptr;
  const core::ScheduleResult result = core::schedule_power_calls(
      s.compiled.program, s.layout, s.config.disk, so);

  Fnv1a fnv;
  for (const ir::PlacedDirective& pd : result.program.directives) {
    fnv.mix(pd.point.nest_index);
    fnv.mix(pd.point.flat_iteration);
    fnv.mix(static_cast<int>(pd.directive.kind));
    fnv.mix(pd.directive.disk);
    fnv.mix(pd.directive.rpm_level);
  }
  for (const core::GapPlan& plan : result.plans) {
    fnv.mix(plan.disk);
    fnv.mix(plan.begin_iter);
    fnv.mix(plan.end_iter);
    fnv.mix(plan.estimated_ms);
    fnv.mix(plan.level);
    fnv.mix(static_cast<int>(plan.acted));
  }
  const core::MispredictStats stats =
      core::compare_with_oracle(result.plans, s.actual, s.config.disk, mode);
  entry.set("calls_inserted", result.calls_inserted);
  entry.set("plans", static_cast<std::int64_t>(result.plans.size()));
  entry.set("mispredicted", stats.mispredicted);
  entry.set("digest", fnv.hex());
}

const std::vector<core::Transformation>& transforms() {
  static const std::vector<core::Transformation> all = {
      core::Transformation::kNone, core::Transformation::kLF,
      core::Transformation::kTL, core::Transformation::kLFDL,
      core::Transformation::kTLDL};
  return all;
}

/// Every schedule on `device`, in golden order, as JSON entries.
std::vector<Json> entries_for(const std::string& device) {
  std::vector<Json> entries;
  for (const std::string& benchmark : workloads::benchmark_names()) {
    for (const core::Transformation transform : transforms()) {
      const Setup s = make_setup(benchmark, transform, device);
      for (const core::PowerMode mode :
           {core::PowerMode::kTpm, core::PowerMode::kDrpm}) {
        for (const std::int64_t granularity : {std::int64_t{1},
                                               std::int64_t{4096}}) {
          for (const bool measured_estimate : {false, true}) {
            Json entry = Json::object();
            entry.set("benchmark", benchmark);
            entry.set("transform", core::to_string(transform));
            entry.set("device", device);
            entry.set("mode", core::to_string(mode));
            entry.set("granularity", granularity);
            entry.set("estimate", measured_estimate ? "measured" : "nominal");
            summarize(s, mode, granularity, measured_estimate, entry);
            entries.push_back(std::move(entry));
          }
        }
      }
    }
  }
  return entries;
}

std::string schedule_name(const Json& entry) {
  return entry.at("benchmark").as_string() + "/" +
         entry.at("transform").as_string() + " " +
         entry.at("mode").as_string() + " granularity " +
         entry.at("granularity").dump() + " " +
         entry.at("estimate").as_string() + " estimate on " +
         entry.at("device").as_string();
}

/// Recompute every golden schedule on `device` and compare it with its
/// entry, field by field.
void check_device(const std::string& device) {
  std::vector<const Json*> want;
  for (const Json& entry : golden().as_array()) {
    if (entry.at("device").as_string() == device) want.push_back(&entry);
  }
  const std::vector<Json> now = entries_for(device);
  // 6 benchmarks x 5 transforms x 2 modes x 2 granularities x 2 estimates.
  ASSERT_EQ(now.size(), 240u) << device;
  ASSERT_EQ(want.size(), now.size()) << device << ": schedule count";
  for (std::size_t i = 0; i < now.size(); ++i) {
    const std::string name = schedule_name(*want[i]);
    ASSERT_EQ(schedule_name(now[i]), name) << "golden order";
    for (const char* field :
         {"calls_inserted", "plans", "mispredicted", "digest"}) {
      ASSERT_EQ(want[i]->at(field).dump(), now[i].at(field).dump())
          << name << ": " << field;
    }
  }
}

TEST(ScheduleGolden, PaperDisk) { check_device("ultrastar_36z15"); }

TEST(ScheduleGolden, ScsiMultiIdle) { check_device("scsi_multi_idle"); }

TEST(ScheduleGolden, NvmeTiered) { check_device("nvme_tiered"); }

}  // namespace
}  // namespace sdpm
