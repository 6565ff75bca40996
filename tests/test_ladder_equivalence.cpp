// The paper disk and the preset devices against committed results.
//
// tests/golden/job_results.json holds JobResult::to_json() (minus the
// measured wall_ms) for the six Table 2 benchmarks x {none, LF+DL, TL+DL} x
// {fault-free, faulted} on the default Ultrastar 36Z15, plus galgel on
// scsi_multi_idle and nvme_tiered.  The paper-disk results were recorded
// while that disk was still evaluated from its Table 1 closed forms, so
// any drift of the ladder-built device shows up here.  Every comparison is
// exact, and a failure names the first differing job, scheme and field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/job_spec.h"
#include "api/session.h"
#include "disk/parameters.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "util/json.h"

namespace sdpm {
namespace {

const Json& golden() {
  static const Json doc = [] {
    std::ifstream in(SDPM_GOLDEN_DIR "/job_results.json");
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
  }();
  return doc;
}

bool on_paper_disk(const Json& entry) {
  return entry.at("device").as_string() == "ultrastar_36z15";
}

bool faulted(const Json& entry) { return entry.at("faulted").as_bool(); }

std::string job_name(const Json& entry) {
  return entry.at("benchmark").as_string() + "/" +
         entry.at("transform").as_string() + " on " +
         entry.at("device").as_string() +
         (faulted(entry) ? " (faulted)" : "");
}

api::JobSpec spec_of(const Json& entry) {
  api::JobSpecBuilder builder(entry.at("benchmark").as_string());
  builder.transform(entry.at("transform").as_string());
  if (!on_paper_disk(entry)) builder.device(entry.at("device").as_string());
  if (faulted(entry)) {
    builder.fault_spinup(0.2).fault_drop(0.1).fault_media(0.05).fault_seed(7);
  }
  return builder.build();
}

/// Exact comparison of a fresh result with the golden entry: the job
/// fields, then every scheme row the run produced against the golden row
/// of the same scheme.  Fails at the first differing field.  Doubles are
/// compared through their shortest-round-trip rendering, so equal text
/// means equal bits.
void expect_golden(const Json& entry, const Json& actual) {
  const Json& expected = entry.at("result");
  for (const char* key : {"label", "benchmark", "transform"}) {
    ASSERT_EQ(expected.at(key).dump(), actual.at(key).dump())
        << job_name(entry) << ": field " << key;
  }
  for (const Json& row : actual.at("schemes").as_array()) {
    const std::string& scheme = row.at("scheme").as_string();
    const Json* want = nullptr;
    for (const Json& golden_row : expected.at("schemes").as_array()) {
      if (golden_row.at("scheme").as_string() == scheme) want = &golden_row;
    }
    ASSERT_NE(want, nullptr) << job_name(entry) << ": no golden " << scheme;
    ASSERT_EQ(want->as_object().size(), row.as_object().size())
        << job_name(entry) << ", scheme " << scheme << ": field count";
    for (const auto& [field, value] : want->as_object()) {
      const Json* now = row.find(field);
      ASSERT_TRUE(now != nullptr && now->dump() == value.dump())
          << job_name(entry) << ", scheme " << scheme << ", field " << field
          << ": golden " << value.dump() << ", now "
          << (now != nullptr ? now->dump() : "<missing>");
    }
  }
}

/// Rerun the selected golden jobs with `schemes` (all seven when empty),
/// replaying the single scheme into `hooks` when given, and compare each
/// with its golden result.
template <typename Select>
void check_golden_jobs(Select select,
                       const std::vector<std::string>& schemes = {},
                       const api::RunHooks& hooks = {}) {
  api::Session session(api::SessionOptions{.jobs = 1});
  int checked = 0;
  for (const Json& entry : golden().as_array()) {
    if (!select(entry)) continue;
    ++checked;
    api::JobSpec spec = spec_of(entry);
    spec.schemes = schemes;
    const Json actual = session.run(spec, hooks).to_json();
    ASSERT_EQ(actual.at("schemes").as_array().size(),
              schemes.empty()
                  ? entry.at("result").at("schemes").as_array().size()
                  : schemes.size())
        << job_name(entry) << ": scheme count";
    ASSERT_NO_FATAL_FAILURE(expect_golden(entry, actual));
  }
  EXPECT_GT(checked, 0);
}

bool any_job(const Json&) { return true; }

TEST(LadderEquivalence, AllSevenSchemesBitIdentical) {
  check_golden_jobs([](const Json& entry) {
    return on_paper_disk(entry) && !faulted(entry);
  });
}

// Spin-up failures, dropped directives and media errors: the fault RNG
// consumption must line up with the recorded runs as well.
TEST(LadderEquivalence, FaultedRunnerBitIdentical) {
  check_golden_jobs([](const Json& entry) { return faulted(entry); });
}

TEST(LadderEquivalence, PresetDevicesBitIdentical) {
  check_golden_jobs([](const Json& entry) { return !on_paper_disk(entry); });
}

// One scheme per job takes the single-scheme path (`sdpm_cli run --scheme
// S`) instead of the all-seven sweep; every replayed scheme must land on
// its golden row.
TEST(LadderEquivalence, ReplayBase) { check_golden_jobs(any_job, {"Base"}); }

TEST(LadderEquivalence, ReplayTpm) { check_golden_jobs(any_job, {"TPM"}); }

TEST(LadderEquivalence, ReplayDrpm) { check_golden_jobs(any_job, {"DRPM"}); }

TEST(LadderEquivalence, ReplayProactiveDirectives) {
  check_golden_jobs(any_job, {"CMTPM"});
  check_golden_jobs(any_job, {"CMDRPM"});
}

// Tracing must not perturb a single bit of the traced replay.
TEST(LadderEquivalence, TracedReplayMatches) {
  obs::CountingSink sink;
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  api::RunHooks hooks;
  hooks.replay_tracer = &tracer;
  check_golden_jobs(
      [](const Json& entry) {
        return entry.at("benchmark").as_string() == "galgel";
      },
      {"CMDRPM"}, hooks);
  EXPECT_GT(sink.total(), 0);
}

// The paper disk's accessors reproduce the Table 1 / DRPM closed forms bit
// for bit: spindle power ~ RPM^2.8 above the 2.5 W electronics floor,
// rotational latency ~ 1/RPM, transfer rate ~ RPM, and 5 ms per 1,200 RPM
// step billed at the faster level's idle power.
TEST(LadderEquivalence, AccessorsMatchBitForBit) {
  const disk::DiskParameters p;
  const auto rpm_of = [](int level) { return 3'000 + level * 1'200; };
  const auto ratio_of = [&](int level) {
    return static_cast<double>(rpm_of(level)) / 15'000.0;
  };
  const auto idle_of = [&](int level) {
    return 2.5 + 7.7 * std::pow(ratio_of(level), 2.8);
  };
  ASSERT_EQ(p.rpm_level_count(), 11);
  for (int level = 0; level < p.rpm_level_count(); ++level) {
    SCOPED_TRACE(level);
    const double rate_bytes_per_ms =
        55.0 * ratio_of(level) * 1'000'000.0 / 1'000.0;
    const TimeMs rotation = 2.0 * (15'000.0 / rpm_of(level));
    EXPECT_EQ(p.rpm_of_level(level), rpm_of(level));
    EXPECT_EQ(p.idle_power_at_level(level), idle_of(level));
    EXPECT_EQ(p.active_power_at_level(level),
              idle_of(level) + 3.3 * ratio_of(level));
    EXPECT_EQ(p.rotational_latency_at_level(level), rotation);
    EXPECT_EQ(p.transfer_rate_at_level(level), 55.0 * ratio_of(level));
    EXPECT_EQ(p.service_time(kib(64), level, false),
              3.4 + rotation + static_cast<double>(kib(64)) /
                                   rate_bytes_per_ms);
    for (int to = 0; to < p.rpm_level_count(); ++to) {
      const TimeMs shift = static_cast<double>(std::abs(to - level)) * 5.0;
      EXPECT_EQ(p.rpm_transition_time(level, to), shift);
      EXPECT_EQ(p.rpm_transition_energy(level, to),
                to == level ? 0.0
                            : joules_from_watt_ms(
                                  idle_of(std::max(level, to)), shift));
    }
  }
  // The standby park's Table 1 edges are pinned by
  // Parameters.LegacyParkApiIsTheOneStandbyState.
  EXPECT_EQ(p.break_even_time(),
            ms_from_seconds((13.0 + 135.0 -
                             2.5 * seconds_from_ms(1'500.0 + 10'900.0)) /
                            (10.2 - 2.5)));
  EXPECT_EQ(p.window_size(), 30);
  EXPECT_EQ(p.lower_tolerance(), 0.05);
  EXPECT_EQ(p.upper_tolerance(), 0.15);
}

}  // namespace
}  // namespace sdpm
