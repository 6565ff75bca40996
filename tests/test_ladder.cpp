// PowerLadder: descriptor validation, JSON round-trips and bounds, and the
// preset catalog.  The paper disk's bit-level guarantees (committed job
// results, Table 1 closed forms) live in test_ladder_equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "disk/ladder.h"
#include "experiments/bench_baseline.h"
#include "util/error.h"
#include "util/json.h"

namespace sdpm::disk {
namespace {

/// Minimal valid TPM-shaped ladder: one park + one level, Table 1 values.
PowerLadder tiny_ladder() {
  PowerLadder l;
  l.name = "tiny";
  l.capacity = gib(18);
  l.average_seek_time = 3.4;
  l.electronics_power = 2.5;
  LadderState park;
  park.name = "standby";
  park.idle_power = 2.5;
  LadderState level;
  level.name = "full";
  level.serviceable = true;
  level.idle_power = 10.2;
  level.active_power = 13.5;
  level.rot_latency_ms = 2.0;
  level.transfer_mb_per_s = 55.0;
  level.rpm = 15'000;
  l.states = {park, level};
  l.edges.assign(4, LadderEdge{});
  l.edge_ref(1, 0) = LadderEdge{1'500.0, 13.0};   // spin-down
  l.edge_ref(0, 1) = LadderEdge{10'900.0, 135.0};  // spin-up
  return l;
}

TEST(Ladder, TinyLadderIsValid) {
  const PowerLadder l = tiny_ladder();
  l.validate();
  EXPECT_EQ(l.park_count(), 1);
  EXPECT_EQ(l.level_count(), 1);
  EXPECT_EQ(l.top_state(), 1);
  EXPECT_EQ(l.state_index("standby"), 0);
  EXPECT_EQ(l.state_index("full"), 1);
  EXPECT_EQ(l.state_index("nope"), -1);
}

TEST(Ladder, PresetCatalog) {
  EXPECT_EQ(PowerLadder::preset_names().size(), 3u);
  for (const std::string& name : PowerLadder::preset_names()) {
    EXPECT_TRUE(PowerLadder::is_preset(name));
    const PowerLadder ladder = PowerLadder::preset(name);
    EXPECT_EQ(ladder.name, name);
    ladder.validate();  // preset() validates too; must stay idempotent
  }
  EXPECT_FALSE(PowerLadder::is_preset("ultrastar"));
  EXPECT_THROW(PowerLadder::preset("ultrastar"), Error);
}

TEST(Ladder, PresetShapes) {
  const PowerLadder scsi = PowerLadder::preset("scsi_multi_idle");
  EXPECT_EQ(scsi.park_count(), 4);  // Standby_Z/Y + Idle_C/B
  EXPECT_EQ(scsi.level_count(), 1);
  // Parks deepen toward index 0: lower power, longer timer, dearer wake.
  for (int p = 1; p < scsi.park_count(); ++p) {
    EXPECT_LE(scsi.states[p - 1].idle_power, scsi.states[p].idle_power);
    EXPECT_GE(scsi.states[p - 1].timer_ms, scsi.states[p].timer_ms);
    EXPECT_GE(scsi.edge(p - 1, scsi.top_state()).time_ms,
              scsi.edge(p, scsi.top_state()).time_ms);
  }

  const PowerLadder nvme = PowerLadder::preset("nvme_tiered");
  EXPECT_EQ(nvme.park_count(), 2);   // PS4/PS3
  EXPECT_EQ(nvme.level_count(), 3);  // PS2..PS0
  for (int s = 0; s < nvme.state_count(); ++s) {
    EXPECT_EQ(nvme.states[s].rot_latency_ms, 0.0);  // non-rotating media
  }
}

TEST(Ladder, JsonRoundTripsEveryPresetBitForBit) {
  for (const std::string& name : PowerLadder::preset_names()) {
    SCOPED_TRACE(name);
    const PowerLadder ladder = PowerLadder::preset(name);
    const Json json = ladder.to_json();
    const PowerLadder back = PowerLadder::from_json(json);
    EXPECT_EQ(ladder, back);
    // The canonical dump is the daemon's fingerprint: byte-stable.
    EXPECT_EQ(json.dump(), back.to_json().dump());
  }
}

TEST(Ladder, FromJsonRejectsUnknownKeys) {
  Json json = tiny_ladder().to_json();
  json.set("spindle_pwr", 7.7);  // typo'd key must fail loudly
  EXPECT_THROW(PowerLadder::from_json(json), Error);
}

TEST(Ladder, FromJsonRejectsNewerSchema) {
  Json json = tiny_ladder().to_json();
  json.set("version", PowerLadder::kSchemaVersion + 1);
  EXPECT_THROW(PowerLadder::from_json(json), Error);
}

TEST(Ladder, RejectsNegativeEdgeEnergy) {
  PowerLadder l = tiny_ladder();
  l.edge_ref(1, 0).energy_j = -1.0;
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsParkWithoutWakeEdge) {
  PowerLadder l = tiny_ladder();
  l.edge_ref(0, 1) = LadderEdge{};  // trap state: timer or not, no exit
  EXPECT_THROW(l.validate(), Error);
  l = tiny_ladder();
  l.states[0].timer_ms = 2'000;
  l.edge_ref(0, 1) = LadderEdge{};
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsUnreachableState) {
  // A second park with a wake edge but no edge into it: unreachable from
  // the top state, so no run could ever use it.
  PowerLadder l = tiny_ladder();
  LadderState orphan;
  orphan.name = "orphan";
  orphan.idle_power = 2.5;
  l.states.insert(l.states.begin() + 1, orphan);
  l.edges.assign(9, LadderEdge{});
  l.edge_ref(2, 0) = LadderEdge{1'500.0, 13.0};
  l.edge_ref(0, 2) = LadderEdge{10'900.0, 135.0};
  l.edge_ref(1, 2) = LadderEdge{10'900.0, 135.0};  // wake exists; entry none
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsLevelIdleBelowElectronicsFloor) {
  PowerLadder l = tiny_ladder();
  l.states[1].idle_power = 2.0;  // below electronics_power = 2.5
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsParkPowerOrderViolation) {
  PowerLadder l = PowerLadder::preset("scsi_multi_idle");
  // Deepest park now dearer than its shallower neighbor.
  l.states[0].idle_power = l.states[1].idle_power + 1.0;
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, EnforcesTable1DecompositionWhenSpindleGiven) {
  PowerLadder l = tiny_ladder();
  l.spindle_power_at_max = 7.7;  // 2.5 + 7.7 == 10.2: Table 1 holds
  l.validate();
  l.spindle_power_at_max = 8.0;  // decomposition broken
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsMissingLevelMeshEdge) {
  PowerLadder l = PowerLadder::preset("nvme_tiered");
  const int ps1 = l.state_index("ps1");
  const int ps0 = l.state_index("ps0");
  ASSERT_GE(ps1, 0);
  ASSERT_GE(ps0, 0);
  l.edge_ref(ps1, ps0) = LadderEdge{};
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, RejectsDeeperParkWithShorterTimer) {
  PowerLadder l = PowerLadder::preset("scsi_multi_idle");
  // The deepest park firing before a shallower one would invert descent.
  l.states[0].timer_ms = 1.0;
  EXPECT_THROW(l.validate(), Error);
}

TEST(Ladder, FromJsonRejectsNegativeEdgeTime) {
  Json json = tiny_ladder().to_json();
  // Hand-author an explicit negative-time edge entry.
  Json edge = Json::object();
  edge.set("from", "full").set("to", "standby").set("time_ms", -5.0)
      .set("energy_j", 1.0);
  Json edges = json.at("edges");
  edges.push_back(std::move(edge));
  json.set("edges", std::move(edges));
  EXPECT_THROW(PowerLadder::from_json(json), Error);
}

/// from_json must reject `json` with an error naming `field`.
void expect_rejected_naming(const Json& json, const std::string& field) {
  try {
    PowerLadder::from_json(json);
    ADD_FAILURE() << "accepted a descriptor with a bad '" << field << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
              std::string::npos)
        << e.what();
  }
}

/// tiny_ladder()'s JSON with the first `from` replaced by `to`.
Json edited_tiny_json(const std::string& from, const std::string& to) {
  std::string text = tiny_ladder().to_json().dump();
  text.replace(text.find(from), from.size(), to);
  return Json::parse(text);
}

TEST(Ladder, FromJsonRangeChecksIntegersBeforeNarrowing) {
  // 4294967326 would truncate to a plausible window of 30.
  expect_rejected_naming(
      edited_tiny_json("\"window_size\":30", "\"window_size\":4294967326"),
      "window_size");
  expect_rejected_naming(
      edited_tiny_json("\"window_size\":30", "\"window_size\":0"),
      "window_size");
  expect_rejected_naming(
      edited_tiny_json("\"rpm\":15000", "\"rpm\":1099511627776"), "rpm");
  expect_rejected_naming(edited_tiny_json("\"rpm\":15000", "\"rpm\":-1"),
                         "rpm");
}

TEST(Ladder, RejectsNonFiniteNumbers) {
  // 1e999 parses as inf, which passes every sign check.
  expect_rejected_naming(edited_tiny_json("\"average_seek_time_ms\":3.4",
                                          "\"average_seek_time_ms\":1e999"),
                         "average_seek_time_ms");
  expect_rejected_naming(edited_tiny_json("\"rot_latency_ms\":2",
                                          "\"rot_latency_ms\":1e999"),
                         "rot_latency_ms");
  expect_rejected_naming(
      edited_tiny_json("\"time_ms\":1.5e+03", "\"time_ms\":1e999"),
      "time_ms");
  expect_rejected_naming(
      edited_tiny_json("\"energy_j\":135", "\"energy_j\":-1e999"),
      "energy_j");
  // A ladder built in code can hold a NaN, which fails every comparison.
  PowerLadder l = tiny_ladder();
  l.states[1].transfer_mb_per_s = std::nan("");
  try {
    l.validate();
    ADD_FAILURE() << "accepted a NaN transfer rate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "PowerLadder 'tiny': state 'full': field "
                  "'transfer_mb_per_s' is not finite"),
              std::string::npos)
        << e.what();
  }
}

TEST(Ladder, FromJsonBoundsTheStateCountBeforeAllocating) {
  // A 20,000-state descriptor is ~350 KB of JSON but would ask for a
  // 20,000 x 20,000 edge matrix; it must fail on the count alone.
  const std::int64_t before = experiments::peak_rss_kib();
  std::string text = "{\"name\":\"huge\",\"edges\":[],\"states\":[";
  for (int i = 0; i < 20'000; ++i) {
    text += (i == 0 ? "{\"name\":\"s" : ",{\"name\":\"s") +
            std::to_string(i) + "\"}";
  }
  text += "]}";
  expect_rejected_naming(Json::parse(text), "states");
  EXPECT_LT(experiments::peak_rss_kib() - before, 64 * 1024);
}

}  // namespace
}  // namespace sdpm::disk
