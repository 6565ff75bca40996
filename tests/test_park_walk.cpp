// The reactive park walk: TpmPolicy parks rung by rung down a ladder's
// timers, the paper disk is its one-rung case, and park_to is the one park
// command every policy issues.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "disk/ladder.h"
#include "disk/parameters.h"
#include "obs/preactivation.h"
#include "obs/tracer.h"
#include "policy/adaptive_tpm.h"
#include "policy/proactive.h"
#include "policy/tpm.h"
#include "sim/disk_unit.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace sdpm {
namespace {

/// One recorded event, with its label copied out (sinks must not keep the
/// pointer).
struct Recorded {
  obs::Event event;
  std::string label;
};

class Recorder final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override {
    events.push_back({e, e.label != nullptr ? e.label : ""});
  }

  std::vector<Recorded> of(obs::EventKind kind) const {
    std::vector<Recorded> out;
    for (const Recorded& r : events) {
      if (r.event.kind == kind) out.push_back(r);
    }
    return out;
  }

  std::vector<Recorded> events;
};

/// The paper disk with its descriptor's idleness threshold set to 5 s.
disk::DiskParameters paper_disk_with_5s_threshold() {
  Json json = disk::PowerLadder::preset("ultrastar_36z15").to_json();
  json.set("idleness_threshold_ms", 5'000.0);
  return disk::DiskParameters::from_ladder(disk::PowerLadder::from_json(json));
}

// Both reactive TPMs honour the ladder's idleness threshold on a one-park
// disk, instead of its 15.2 s break-even time, and name the park they
// reach in their decision and directive events.
TEST(ParkWalk, OneParkLadderHonoursItsIdlenessThreshold) {
  const disk::DiskParameters params = paper_disk_with_5s_threshold();
  ASSERT_EQ(params.park_count(), 1);
  ASSERT_GT(params.break_even_time(), 15'000.0);
  ASSERT_DOUBLE_EQ(params.effective_idleness_threshold(), 5'000.0);

  policy::TpmPolicy tpm;
  policy::AdaptiveTpmPolicy atpm;
  for (sim::PowerPolicy* policy : {static_cast<sim::PowerPolicy*>(&tpm),
                                   static_cast<sim::PowerPolicy*>(&atpm)}) {
    obs::EventTracer tracer;
    Recorder recorder;
    tracer.add_sink(recorder);
    sim::DiskUnit disk(params, 0);
    disk.set_tracer(&tracer);
    policy->set_tracer(&tracer);
    policy->attach(disk);
    if (policy == &atpm) {
      EXPECT_DOUBLE_EQ(atpm.threshold_of(0), 5'000.0);
    }
    const TimeMs idle_start = disk.serve(0.0, 0, kib(64)).completion;
    policy->before_service(disk, idle_start + 20'000.0);
    disk.finish(idle_start + 20'000.0);
    tracer.close();
    EXPECT_EQ(disk.report().spin_downs, 1) << policy->name();
    EXPECT_DOUBLE_EQ(disk.report().breakdown.idle_ms, 5'000.0) << policy->name();
    const std::vector<Recorded> decisions =
        recorder.of(obs::EventKind::kBreakEven);
    ASSERT_EQ(decisions.size(), 1u) << policy->name();
    EXPECT_EQ(decisions[0].label, "standby") << policy->name();
    EXPECT_DOUBLE_EQ(decisions[0].event.value2, 5'000.0) << policy->name();
    const std::vector<Recorded> directives =
        recorder.of(obs::EventKind::kDirective);
    ASSERT_EQ(directives.size(), 1u) << policy->name();
    EXPECT_EQ(directives[0].label, "standby") << policy->name();
  }
}

// One 400 s idle gap on scsi_multi_idle walks all four rungs at their
// timers (2, 15, 120, 300 s), deepening along the park->park descent
// edges.  Every number below is the preset's ladder, summed by hand.
TEST(ParkWalk, DescendsEveryScsiParkAtItsTimer) {
  const disk::DiskParameters params =
      disk::DiskParameters::preset("scsi_multi_idle");
  obs::EventTracer tracer;
  Recorder recorder;
  tracer.add_sink(recorder);
  sim::DiskUnit unit(params, 0);
  unit.set_tracer(&tracer);
  policy::TpmPolicy tpm;
  tpm.set_tracer(&tracer);
  tpm.attach(unit);

  const TimeMs c = unit.serve(0.0, 0, kib(64)).completion;
  const disk::EnergyBreakdown served = unit.report().breakdown;
  tpm.before_service(unit, c + 400'000.0);
  unit.finish(c + 400'000.0);
  tracer.close();

  const std::vector<Recorded> directives =
      recorder.of(obs::EventKind::kDirective);
  const std::vector<std::string> parks = {"idle_b", "idle_c", "standby_y",
                                          "standby_z"};
  const std::vector<TimeMs> timers = {2'000.0, 15'000.0, 120'000.0,
                                      300'000.0};
  ASSERT_EQ(directives.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(directives[i].label, parks[i]);
    EXPECT_DOUBLE_EQ(directives[i].event.t0, c + timers[i]);
    EXPECT_EQ(directives[i].event.value, 3.0 - static_cast<double>(i));
  }
  const std::vector<Recorded> decisions =
      recorder.of(obs::EventKind::kBreakEven);
  ASSERT_EQ(decisions.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decisions[i].label, parks[i]);
    EXPECT_DOUBLE_EQ(decisions[i].event.value2, timers[i]);
  }
  EXPECT_EQ(unit.current_park(), 0);
  EXPECT_EQ(unit.report().spin_downs, 4);

  // Entry active_idle -> idle_b 0.5 s / 3.2 J, then the descents
  // idle_b -> idle_c 0.6 s / 1.8 J, idle_c -> standby_y 3.5 s / 11 J and
  // standby_y -> standby_z 2.5 s / 4.5 J (the direct entries would take
  // 1, 4 and 6 s).
  const disk::EnergyBreakdown& b = unit.report().breakdown;
  EXPECT_DOUBLE_EQ(b.idle_ms - served.idle_ms, 2'000.0);
  EXPECT_NEAR(b.idle_j - served.idle_j, 11.6 * 2.0, 1e-9);
  EXPECT_NEAR(b.spin_down_ms, 500.0 + 600.0 + 3'500.0 + 2'500.0, 1e-9);
  EXPECT_NEAR(b.spin_down_j, 3.2 + 1.8 + 11.0 + 4.5, 1e-9);
  // Residency per park: from the end of its entry to the next timer.
  const std::map<std::string, TimeMs> residency = {
      {"idle_b", 15'000.0 - 2'500.0},
      {"idle_c", 120'000.0 - 15'600.0},
      {"standby_y", 300'000.0 - 123'500.0},
      {"standby_z", 400'000.0 - 302'500.0}};
  const std::map<std::string, double> watts = {{"idle_b", 5.4},
                                               {"idle_c", 2.8},
                                               {"standby_y", 1.6},
                                               {"standby_z", 0.9}};
  std::map<std::string, TimeMs> seen_ms;
  std::map<std::string, Joules> seen_j;
  for (const Recorded& r : recorder.of(obs::EventKind::kStateSegment)) {
    if (r.event.state != disk::PowerState::kStandby) continue;
    seen_ms[r.label] += r.event.value;
    seen_j[r.label] += r.event.energy_j;
  }
  TimeMs standby_ms = 0;
  Joules standby_j = 0;
  for (const auto& [park, ms] : residency) {
    EXPECT_NEAR(seen_ms[park], ms, 1e-6) << park;
    EXPECT_NEAR(seen_j[park], watts.at(park) * ms / 1'000.0, 1e-6) << park;
    standby_ms += ms;
    standby_j += watts.at(park) * ms / 1'000.0;
  }
  EXPECT_NEAR(b.standby_ms, standby_ms, 1e-6);
  EXPECT_NEAR(b.standby_j, standby_j, 1e-6);
  EXPECT_NEAR(b.total_ms(), c + 400'000.0, 1e-6);
}

// park_to holds when the ladder has no edge for the move, and under
// injected directive drops counts the drop and names the park.
TEST(ParkWalk, ParkToHoldsWithoutAnEdgeAndNamesDroppedParks) {
  const disk::DiskParameters params =
      disk::DiskParameters::preset("scsi_multi_idle");
  ASSERT_EQ(params.park_name(3), "idle_b");
  ASSERT_EQ(params.park_name(1), "standby_y");
  ASSERT_FALSE(params.park_descent_possible(3, 1));

  sim::DiskUnit unit(params, 0);
  unit.park_to(0.0, 3);
  unit.park_to(10'000.0, 1);  // idle_b has no edge to standby_y
  unit.finish(20'000.0);
  EXPECT_EQ(unit.current_park(), 3);
  EXPECT_EQ(unit.report().spin_downs, 1);
  EXPECT_NEAR(unit.report().breakdown.spin_down_ms, 500.0, 1e-9);

  sim::FaultConfig fc;
  fc.dropped_directive_prob = 1.0;
  sim::FaultModel faults(fc);
  obs::EventTracer tracer;
  Recorder recorder;
  tracer.add_sink(recorder);
  sim::DiskUnit dropped(params, 0, &faults);
  dropped.set_tracer(&tracer);
  dropped.park_to(1'000.0, 2);
  tracer.close();
  EXPECT_EQ(dropped.current_park(), -1);
  EXPECT_EQ(dropped.report().dropped_directives, 1);
  EXPECT_EQ(dropped.report().spin_downs, 0);
  const std::vector<Recorded> drops =
      recorder.of(obs::EventKind::kDirectiveDropped);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].label, "idle_c");
  EXPECT_EQ(drops[0].event.value, 2.0);
  EXPECT_DOUBLE_EQ(drops[0].event.t0, 1'000.0);
}

trace::PowerEvent power_at(TimeMs at, ir::PowerDirective::Kind kind) {
  trace::PowerEvent pe;
  pe.app_time_ms = at;
  pe.directive.kind = kind;
  pe.directive.disk = 0;
  return pe;
}

trace::Request request_at(TimeMs at, BlockNo sector) {
  trace::Request r;
  r.arrival_ms = at;
  r.start_sector = sector;
  r.size_bytes = kib(64);
  return r;
}

// A pre-activation that a park overtakes before the next request is
// wasted, on a ladder whose parks carry their own names: the request then
// pays a demand spin-up, or a second pre-activation takes over.
TEST(ParkWalk, AccountantWastesAPreactivationAParkOvertakes) {
  const disk::DiskParameters params =
      disk::DiskParameters::preset("scsi_multi_idle");
  using Kind = ir::PowerDirective::Kind;
  // Entry into standby_z takes 6 s and a wake 11 s: the spin-up at 10 s is
  // ready at 21 s, and the park at 30 s overtakes it.
  trace::Trace overtaken;
  overtaken.total_disks = 1;
  overtaken.compute_total_ms = 120'000.0;
  overtaken.requests = {request_at(100.0, 0), request_at(60'000.0, 512)};
  overtaken.power_events = {power_at(1'000.0, Kind::kSpinDown),
                            power_at(10'000.0, Kind::kSpinUp),
                            power_at(30'000.0, Kind::kSpinDown)};
  // The same, with a second spin-up at 40 s that is ready by the request.
  trace::Trace retaken = overtaken;
  retaken.power_events.push_back(power_at(40'000.0, Kind::kSpinUp));

  for (const bool second_spin_up : {false, true}) {
    obs::PreactivationAccountant accountant;
    Recorder recorder;
    obs::EventTracer tracer;
    tracer.add_sink(accountant);
    tracer.add_sink(recorder);
    policy::ProactivePolicy policy;
    sim::SimOptions options;
    options.mode = sim::ReplayMode::kOpenLoop;
    options.tracer = &tracer;
    sim::simulate(second_spin_up ? retaken : overtaken, params, policy,
                  options);
    tracer.close();
    const obs::PreactivationReport& report = accountant.report();
    EXPECT_EQ(report.issued(), second_spin_up ? 2 : 1);
    EXPECT_EQ(report.wasted(), 1);
    EXPECT_EQ(report.hits(), second_spin_up ? 1 : 0);
    EXPECT_EQ(report.demand_spin_ups(), second_spin_up ? 0 : 1);
    int parks = 0;
    for (const Recorded& r : recorder.of(obs::EventKind::kDirective)) {
      if (r.label == "spin_up") continue;
      EXPECT_EQ(r.label, "standby_z");
      ++parks;
    }
    EXPECT_EQ(parks, 2);
  }
}

}  // namespace
}  // namespace sdpm
