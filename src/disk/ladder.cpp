#include "disk/ladder.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <deque>

#include "util/error.h"
#include "util/strings.h"

namespace sdpm::disk {

namespace {

constexpr double kDecompositionTol = 1e-6;

[[noreturn]] void fail(const PowerLadder& ladder, const std::string& what) {
  throw Error("PowerLadder '" + (ladder.name.empty() ? "?" : ladder.name) +
              "': " + what);
}

/// Reject a value that is inf or NaN, naming its descriptor field.
void require_finite(const PowerLadder& ladder, const std::string& where,
                    const char* field, double value) {
  if (!std::isfinite(value)) {
    fail(ladder, where + str_printf("field '%s' is not finite (%g)", field,
                                    value));
  }
}

/// Size the edge matrix to the states, every edge absent.
void clear_edges(PowerLadder& ladder) {
  const auto n = static_cast<std::size_t>(ladder.state_count());
  ladder.edges.assign(n * n, LadderEdge{});
}

}  // namespace

int PowerLadder::park_count() const {
  int parks = 0;
  for (const LadderState& s : states) {
    if (s.serviceable) break;
    ++parks;
  }
  return parks;
}

const LadderEdge& PowerLadder::edge(int from_state, int to_state) const {
  const int n = state_count();
  SDPM_REQUIRE(from_state >= 0 && from_state < n && to_state >= 0 &&
                   to_state < n,
               "ladder edge endpoint out of range");
  return edges[static_cast<std::size_t>(from_state * n + to_state)];
}

LadderEdge& PowerLadder::edge_ref(int from_state, int to_state) {
  const int n = state_count();
  SDPM_REQUIRE(from_state >= 0 && from_state < n && to_state >= 0 &&
                   to_state < n,
               "ladder edge endpoint out of range");
  return edges[static_cast<std::size_t>(from_state * n + to_state)];
}

int PowerLadder::state_index(const std::string& state_name) const {
  for (int i = 0; i < state_count(); ++i) {
    if (states[static_cast<std::size_t>(i)].name == state_name) return i;
  }
  return -1;
}

void PowerLadder::validate() const {
  const int n = state_count();
  if (n < 2) fail(*this, "needs at least one parked and one serviceable state");
  if (n > kMaxStates) {
    fail(*this, str_printf("more than %d states", kMaxStates));
  }
  if (edges.size() != static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    fail(*this, str_printf("edge matrix holds %zu entries, want %d x %d",
                           edges.size(), n, n));
  }

  // Every number must be finite.  A descriptor's 1e999 parses as inf,
  // passes the sign checks below, and would otherwise fail only when a
  // result is serialized, naming neither the ladder nor the field.
  require_finite(*this, "", "average_seek_time_ms", average_seek_time);
  require_finite(*this, "", "electronics_power_w", electronics_power);
  require_finite(*this, "", "spindle_power_at_max_w", spindle_power_at_max);
  require_finite(*this, "", "lower_tolerance", lower_tolerance);
  require_finite(*this, "", "upper_tolerance", upper_tolerance);
  require_finite(*this, "", "idleness_threshold_ms", idleness_threshold);
  for (const LadderState& s : states) {
    const std::string where = "state '" + s.name + "': ";
    require_finite(*this, where, "idle_power_w", s.idle_power);
    require_finite(*this, where, "active_power_w", s.active_power);
    require_finite(*this, where, "rot_latency_ms", s.rot_latency_ms);
    require_finite(*this, where, "transfer_mb_per_s", s.transfer_mb_per_s);
    require_finite(*this, where, "timer_ms", s.timer_ms);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const LadderEdge& e = edge(i, j);
      if (std::isfinite(e.time_ms) && std::isfinite(e.energy_j)) continue;
      const std::string where = "edge " +
                                states[static_cast<std::size_t>(i)].name +
                                " -> " +
                                states[static_cast<std::size_t>(j)].name + ": ";
      require_finite(*this, where, "time_ms", e.time_ms);
      require_finite(*this, where, "energy_j", e.energy_j);
    }
  }

  // Shape: parks strictly before levels, at least one of each.
  const int parks = park_count();
  if (parks == 0) {
    fail(*this, "needs at least one parked (non-serviceable) state first");
  }
  if (parks == n) fail(*this, "needs at least one serviceable state");
  for (int i = parks; i < n; ++i) {
    if (!states[static_cast<std::size_t>(i)].serviceable) {
      fail(*this, "state '" + states[static_cast<std::size_t>(i)].name +
                      "': parked states must precede every serviceable state");
    }
  }

  // Per-state checks.
  for (int i = 0; i < n; ++i) {
    const LadderState& s = states[static_cast<std::size_t>(i)];
    if (s.name.empty()) fail(*this, str_printf("state %d has no name", i));
    for (int j = 0; j < i; ++j) {
      if (states[static_cast<std::size_t>(j)].name == s.name) {
        fail(*this, "duplicate state name '" + s.name + "'");
      }
    }
    if (s.idle_power < 0) fail(*this, "state '" + s.name + "': negative power");
    if (s.serviceable) {
      if (s.transfer_mb_per_s <= 0) {
        fail(*this, "state '" + s.name +
                        "': serviceable states need transfer_mb_per_s > 0");
      }
      if (s.rot_latency_ms < 0) {
        fail(*this, "state '" + s.name + "': negative rotational latency");
      }
      if (s.active_power < s.idle_power) {
        fail(*this, "state '" + s.name + "': active power below idle power");
      }
      if (s.idle_power + kDecompositionTol < electronics_power) {
        fail(*this,
             str_printf("state '%s': idle power %.6f W below the electronics "
                        "floor %.6f W (Table 1 decomposition)",
                        s.name.c_str(), s.idle_power, electronics_power));
      }
    } else if (s.timer_ms >= 0) {
      // A timer promises the device will sit in this state; it must be
      // able to leave it again.
      bool has_exit = false;
      for (int j = 0; j < n && !has_exit; ++j) {
        has_exit = j != i && edge(i, j).present();
      }
      if (!has_exit) {
        fail(*this, "state '" + s.name +
                        "': idleness timer on a non-serviceable state with "
                        "no outgoing transition");
      }
    }
  }

  // Monotone power ordering inside each band (ascending capability).
  for (int i = 1; i < parks; ++i) {
    if (states[static_cast<std::size_t>(i)].idle_power <
        states[static_cast<std::size_t>(i - 1)].idle_power) {
      fail(*this, "park '" + states[static_cast<std::size_t>(i)].name +
                      "': park powers must be non-decreasing (deepest first)");
    }
  }
  for (int i = parks + 1; i < n; ++i) {
    if (states[static_cast<std::size_t>(i)].idle_power <
        states[static_cast<std::size_t>(i - 1)].idle_power) {
      fail(*this, "level '" + states[static_cast<std::size_t>(i)].name +
                      "': level idle powers must be non-decreasing "
                      "(slowest first)");
    }
  }
  // Across the band boundary: parking must never cost more than idling at
  // the slowest level (the simulator's standby-floor invariant relies on
  // the deepest park being the global power minimum).
  if (states[static_cast<std::size_t>(parks)].idle_power <
      states[static_cast<std::size_t>(parks - 1)].idle_power) {
    fail(*this, "park '" + states[static_cast<std::size_t>(parks - 1)].name +
                    "': parked power exceeds the slowest level's idle power");
  }
  // Timers deepen with residence: deeper parks fire later.
  for (int i = 1; i < parks; ++i) {
    const TimeMs deep = states[static_cast<std::size_t>(i - 1)].timer_ms;
    const TimeMs shallow = states[static_cast<std::size_t>(i)].timer_ms;
    if (deep >= 0 && shallow >= 0 && deep < shallow) {
      fail(*this, "park '" + states[static_cast<std::size_t>(i - 1)].name +
                      "': a deeper park cannot have a shorter idleness timer "
                      "than a shallower one");
    }
  }

  // Edge costs.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const LadderEdge& e = edge(i, j);
      if (!e.present()) continue;
      if (e.energy_j < 0) {
        fail(*this, "edge " + states[static_cast<std::size_t>(i)].name +
                        " -> " + states[static_cast<std::size_t>(j)].name +
                        ": negative transition energy");
      }
    }
  }

  // Wake edges: every park must reach the top level directly (the demand
  // spin-up path), and every level must reach the default (deepest) park
  // (the spin-down directive path).
  const int top = top_state();
  for (int p = 0; p < parks; ++p) {
    if (!edge(p, top).present()) {
      fail(*this, "park '" + states[static_cast<std::size_t>(p)].name +
                      "': no wake edge to the top level '" +
                      states[static_cast<std::size_t>(top)].name + "'");
    }
  }
  for (int l = parks; l < n; ++l) {
    if (!edge(l, 0).present()) {
      fail(*this, "level '" + states[static_cast<std::size_t>(l)].name +
                      "': no entry edge to the default park '" +
                      states[0].name + "'");
    }
  }
  // Level mesh: an RPM/tier shift must be possible between any two levels.
  for (int i = parks; i < n; ++i) {
    for (int j = parks; j < n; ++j) {
      if (i != j && !edge(i, j).present()) {
        fail(*this, "levels '" + states[static_cast<std::size_t>(i)].name +
                        "' and '" + states[static_cast<std::size_t>(j)].name +
                        "' have no transition edge between them");
      }
    }
  }

  // Reachability: every state must be reachable from the top level, else
  // it can never be entered (a dead rung is almost certainly a typo).
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::deque<int> frontier{top};
  seen[static_cast<std::size_t>(top)] = true;
  while (!frontier.empty()) {
    const int s = frontier.front();
    frontier.pop_front();
    for (int j = 0; j < n; ++j) {
      if (!seen[static_cast<std::size_t>(j)] && edge(s, j).present()) {
        seen[static_cast<std::size_t>(j)] = true;
        frontier.push_back(j);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!seen[static_cast<std::size_t>(i)]) {
      fail(*this, "state '" + states[static_cast<std::size_t>(i)].name +
                      "': unreachable from the top level");
    }
  }

  // Mechanics + controller knobs.
  if (capacity <= 0) fail(*this, "capacity must be positive");
  if (average_seek_time < 0) fail(*this, "negative average seek time");
  if (electronics_power < 0) fail(*this, "negative electronics power");
  if (window_size < 1) fail(*this, "window size must be >= 1");
  if (lower_tolerance < 0 || upper_tolerance < lower_tolerance) {
    fail(*this, "controller tolerances must satisfy 0 <= lower <= upper");
  }

  // Explicit Table 1 decomposition for RPM-scaling ladders: the top
  // level's idle power must split into electronics + spindle exactly, so
  // an inconsistent descriptor fails here instead of skewing every
  // derived level power.
  if (spindle_power_at_max >= 0) {
    const Watts decomposed = electronics_power + spindle_power_at_max;
    const Watts idle_top = states[static_cast<std::size_t>(top)].idle_power;
    if (std::abs(decomposed - idle_top) > kDecompositionTol) {
      fail(*this,
           str_printf("Table 1 decomposition violated: electronics %.6f W + "
                      "spindle-at-max %.6f W = %.6f W, but the top level "
                      "'%s' idles at %.6f W",
                      electronics_power, spindle_power_at_max, decomposed,
                      states[static_cast<std::size_t>(top)].name.c_str(),
                      idle_top));
    }
  }
}

Json PowerLadder::to_json() const {
  Json states_json = Json::array();
  for (const LadderState& s : states) {
    Json state = Json::object();
    state.set("name", s.name)
        .set("serviceable", s.serviceable)
        .set("idle_power_w", s.idle_power)
        .set("active_power_w", s.active_power)
        .set("rot_latency_ms", s.rot_latency_ms)
        .set("transfer_mb_per_s", s.transfer_mb_per_s)
        .set("rpm", s.rpm)
        .set("timer_ms", s.timer_ms);
    states_json.push_back(std::move(state));
  }
  Json edges_json = Json::array();
  const int n = state_count();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const LadderEdge& e = edge(i, j);
      if (!e.present()) continue;
      Json entry = Json::object();
      entry.set("from", states[static_cast<std::size_t>(i)].name)
          .set("to", states[static_cast<std::size_t>(j)].name)
          .set("time_ms", e.time_ms)
          .set("energy_j", e.energy_j);
      edges_json.push_back(std::move(entry));
    }
  }
  Json json = Json::object();
  json.set("version", kSchemaVersion)
      .set("name", name)
      .set("model", model)
      .set("interface", interface)
      .set("capacity_bytes", capacity)
      .set("average_seek_time_ms", average_seek_time)
      .set("electronics_power_w", electronics_power)
      .set("spindle_power_at_max_w", spindle_power_at_max)
      .set("window_size", window_size)
      .set("lower_tolerance", lower_tolerance)
      .set("upper_tolerance", upper_tolerance)
      .set("idleness_threshold_ms", idleness_threshold)
      .set("states", std::move(states_json))
      .set("edges", std::move(edges_json));
  return json;
}

namespace {

void require_keys(const Json& json, std::initializer_list<const char*> known,
                  const char* what) {
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return key == k;
        }) == known.end()) {
      throw Error(std::string("PowerLadder: unknown ") + what + " field '" +
                  key + "'");
    }
  }
}

double field_double(const Json& json, const char* key, double fallback) {
  const Json* f = json.find(key);
  return f == nullptr ? fallback : f->as_double();
}

std::int64_t field_int(const Json& json, const char* key,
                       std::int64_t fallback) {
  const Json* f = json.find(key);
  return f == nullptr ? fallback : f->as_int();
}

/// An integer field narrowed to int after checking it lies in [lo, hi].
int field_bounded_int(const Json& json, const char* key, int fallback,
                      int lo, int hi) {
  const std::int64_t v = field_int(json, key, fallback);
  if (v < lo || v > hi) {
    throw Error(str_printf("PowerLadder: field '%s' = %lld is outside [%d, %d]",
                           key, static_cast<long long>(v), lo, hi));
  }
  return static_cast<int>(v);
}

std::string field_string(const Json& json, const char* key,
                         const std::string& fallback) {
  const Json* f = json.find(key);
  return f == nullptr ? fallback : f->as_string();
}

}  // namespace

PowerLadder PowerLadder::from_json(const Json& json) {
  SDPM_REQUIRE(json.is_object(), "PowerLadder: expected a JSON object");
  require_keys(json,
               {"version", "name", "model", "interface", "capacity_bytes",
                "average_seek_time_ms", "electronics_power_w",
                "spindle_power_at_max_w", "window_size", "lower_tolerance",
                "upper_tolerance", "idleness_threshold_ms", "states", "edges"},
               "ladder");
  const std::int64_t version = field_int(json, "version", kSchemaVersion);
  SDPM_REQUIRE(version >= 1 && version <= kSchemaVersion,
               str_printf("PowerLadder: unsupported schema version %lld",
                          static_cast<long long>(version)));
  PowerLadder ladder;
  ladder.name = field_string(json, "name", "");
  ladder.model = field_string(json, "model", "");
  ladder.interface = field_string(json, "interface", "");
  ladder.capacity = field_int(json, "capacity_bytes", 0);
  ladder.average_seek_time = field_double(json, "average_seek_time_ms", 0);
  ladder.electronics_power = field_double(json, "electronics_power_w", 0);
  ladder.spindle_power_at_max =
      field_double(json, "spindle_power_at_max_w", -1);
  ladder.window_size =
      field_bounded_int(json, "window_size", ladder.window_size, 1, INT_MAX);
  ladder.lower_tolerance =
      field_double(json, "lower_tolerance", ladder.lower_tolerance);
  ladder.upper_tolerance =
      field_double(json, "upper_tolerance", ladder.upper_tolerance);
  ladder.idleness_threshold =
      field_double(json, "idleness_threshold_ms", ladder.idleness_threshold);

  const Json::Array& states_json = json.at("states").as_array();
  if (states_json.size() > static_cast<std::size_t>(kMaxStates)) {
    throw Error(str_printf(
        "PowerLadder: field 'states' holds %zu entries, more than %d",
        states_json.size(), kMaxStates));
  }
  for (const Json& state_json : states_json) {
    SDPM_REQUIRE(state_json.is_object(),
                 "PowerLadder: each state must be an object");
    require_keys(state_json,
                 {"name", "serviceable", "idle_power_w", "active_power_w",
                  "rot_latency_ms", "transfer_mb_per_s", "rpm", "timer_ms"},
                 "state");
    LadderState s;
    s.name = state_json.at("name").as_string();
    if (const Json* f = state_json.find("serviceable")) {
      s.serviceable = f->as_bool();
    }
    s.idle_power = field_double(state_json, "idle_power_w", 0);
    s.active_power = field_double(state_json, "active_power_w", 0);
    s.rot_latency_ms = field_double(state_json, "rot_latency_ms", 0);
    s.transfer_mb_per_s = field_double(state_json, "transfer_mb_per_s", 0);
    s.rpm = field_bounded_int(state_json, "rpm", 0, 0, INT_MAX);
    s.timer_ms = field_double(state_json, "timer_ms", -1);
    ladder.states.push_back(std::move(s));
  }
  clear_edges(ladder);
  for (const Json& edge_json : json.at("edges").as_array()) {
    SDPM_REQUIRE(edge_json.is_object(),
                 "PowerLadder: each edge must be an object");
    require_keys(edge_json, {"from", "to", "time_ms", "energy_j"}, "edge");
    const std::string& from = edge_json.at("from").as_string();
    const std::string& to = edge_json.at("to").as_string();
    const int fi = ladder.state_index(from);
    const int ti = ladder.state_index(to);
    SDPM_REQUIRE(fi >= 0, "PowerLadder: edge from unknown state '" + from + "'");
    SDPM_REQUIRE(ti >= 0, "PowerLadder: edge to unknown state '" + to + "'");
    LadderEdge& e = ladder.edge_ref(fi, ti);
    e.time_ms = edge_json.at("time_ms").as_double();
    e.energy_j = field_double(edge_json, "energy_j", 0);
    SDPM_REQUIRE(e.time_ms >= 0,
                 "PowerLadder: edge " + from + " -> " + to +
                     " has a negative transition time");
  }
  ladder.validate();
  return ladder;
}

namespace {

void set_edge(PowerLadder& ladder, const char* from, const char* to,
              TimeMs time, Joules energy) {
  ladder.edge_ref(ladder.state_index(from), ladder.state_index(to)) =
      LadderEdge{time, energy};
}

LadderState parked(const char* name, Watts power, TimeMs timer) {
  LadderState s;
  s.name = name;
  s.idle_power = power;
  s.timer_ms = timer;
  return s;
}

PowerLadder make_ultrastar_36z15() {
  // The paper's disk: IBM Ultrastar 36Z15 (Table 1) with the DRPM scaling
  // laws of Gurumurthi et al. (ISCA'03) over an eleven-level RPM ladder.
  // Each level value is evaluated by its closed form, in this order, so
  // presets/ultrastar_36z15.json pins the formula results bit for bit.
  constexpr int kMinRpm = 3'000;
  constexpr int kMaxRpm = 15'000;
  constexpr int kRpmStep = 1'200;
  constexpr double kSpindleExponent = 2.8;  // spindle power ~ RPM^2.8
  constexpr Watts kAccessPowerAtMax = 3.3;  // active - idle at full speed
  constexpr TimeMs kRotationAtMax = 2.0;    // average rotational latency
  constexpr double kTransferAtMax = 55.0;   // MB/s
  constexpr TimeMs kStepTime = 5.0;         // per RPM step, up or down
  PowerLadder ladder;
  ladder.name = "ultrastar_36z15";
  ladder.model = "IBM Ultrastar 36Z15";
  ladder.interface = "SCSI";
  ladder.capacity = gib(18);
  ladder.average_seek_time = 3.4;
  ladder.electronics_power = 2.5;
  ladder.spindle_power_at_max = 7.7;  // idle 10.2 W - electronics

  ladder.states.push_back(parked("standby", 2.5, -1));
  for (int rpm = kMinRpm; rpm <= kMaxRpm; rpm += kRpmStep) {
    const double ratio =
        static_cast<double>(rpm) / static_cast<double>(kMaxRpm);
    LadderState level;
    level.name = "rpm_" + std::to_string(rpm);
    level.serviceable = true;
    level.idle_power = ladder.electronics_power +
                       ladder.spindle_power_at_max *
                           std::pow(ratio, kSpindleExponent);
    level.active_power = level.idle_power + kAccessPowerAtMax * ratio;
    level.rot_latency_ms =
        kRotationAtMax *
        (static_cast<double>(kMaxRpm) / static_cast<double>(rpm));
    level.transfer_mb_per_s = kTransferAtMax * ratio;
    level.rpm = rpm;
    ladder.states.push_back(std::move(level));
  }

  clear_edges(ladder);
  const int levels = ladder.level_count();
  for (int i = 0; i < levels; ++i) {
    for (int j = 0; j < levels; ++j) {
      if (i == j) continue;
      // RPM shifts are billed at the faster level's idle power.
      const TimeMs time = static_cast<double>(std::abs(j - i)) * kStepTime;
      const Watts faster =
          ladder.states[static_cast<std::size_t>(
                            ladder.level_state(std::max(i, j)))]
              .idle_power;
      ladder.edge_ref(ladder.level_state(i), ladder.level_state(j)) =
          LadderEdge{time, joules_from_watt_ms(faster, time)};
    }
    ladder.edge_ref(ladder.level_state(i), 0) = LadderEdge{1'500.0, 13.0};
  }
  ladder.edge_ref(0, ladder.top_state()) = LadderEdge{10'900.0, 135.0};
  return ladder;
}

PowerLadder make_scsi_multi_idle() {
  // Representative enterprise-SCSI power conditions (T10 power-condition
  // timers): one full-speed serviceable state plus the Idle_B / Idle_C
  // head-unload conditions and the Standby_Y / Standby_Z spun-down
  // conditions, each with its own idleness timer, power and wake cost.
  PowerLadder ladder;
  ladder.name = "scsi_multi_idle";
  ladder.model = "Enterprise SCSI (multi-idle power conditions)";
  ladder.interface = "SCSI";
  ladder.capacity = gib(300);
  ladder.average_seek_time = 3.5;
  ladder.electronics_power = 2.2;
  ladder.spindle_power_at_max = -1;  // single-speed spindle, no scaling law

  ladder.states.push_back(parked("standby_z", 0.9, 300'000.0));
  ladder.states.push_back(parked("standby_y", 1.6, 120'000.0));
  ladder.states.push_back(parked("idle_c", 2.8, 15'000.0));
  ladder.states.push_back(parked("idle_b", 5.4, 2'000.0));
  LadderState level;
  level.name = "active_idle";
  level.serviceable = true;
  level.idle_power = 11.6;
  level.active_power = 14.9;
  level.rot_latency_ms = 2.0;
  level.transfer_mb_per_s = 89.0;
  level.rpm = 15'000;
  ladder.states.push_back(std::move(level));

  clear_edges(ladder);
  // Entries from full speed (head unload is quick; a full stop is not).
  set_edge(ladder, "active_idle", "idle_b", 500.0, 3.2);
  set_edge(ladder, "active_idle", "idle_c", 1'000.0, 5.5);
  set_edge(ladder, "active_idle", "standby_y", 4'000.0, 20.0);
  set_edge(ladder, "active_idle", "standby_z", 6'000.0, 26.0);
  // Progressive descent along the timer chain.
  set_edge(ladder, "idle_b", "idle_c", 600.0, 1.8);
  set_edge(ladder, "idle_c", "standby_y", 3'500.0, 11.0);
  set_edge(ladder, "standby_y", "standby_z", 2'500.0, 4.5);
  // Wakes (deeper parks pay more).
  set_edge(ladder, "idle_b", "active_idle", 500.0, 4.0);
  set_edge(ladder, "idle_c", "active_idle", 1'200.0, 9.0);
  set_edge(ladder, "standby_y", "active_idle", 7'000.0, 95.0);
  set_edge(ladder, "standby_z", "active_idle", 11'000.0, 140.0);
  return ladder;
}

PowerLadder make_nvme_tiered() {
  // NVMe-style power states: three serviceable tiers (PS0 fastest) and two
  // non-operational parks with millisecond-scale wake, modelled on typical
  // datacenter-SSD power-state tables.  No mechanics: zero seek and
  // rotational latency, throughput scales with the tier.
  PowerLadder ladder;
  ladder.name = "nvme_tiered";
  ladder.model = "Generic datacenter NVMe SSD";
  ladder.interface = "NVMe";
  ladder.capacity = gib(2'048);
  ladder.average_seek_time = 0.0;
  ladder.electronics_power = 0.3;
  ladder.spindle_power_at_max = -1;  // no spindle

  auto tier = [](const char* name, Watts idle, Watts active, double mb_per_s) {
    LadderState s;
    s.name = name;
    s.serviceable = true;
    s.idle_power = idle;
    s.active_power = active;
    s.transfer_mb_per_s = mb_per_s;
    return s;
  };
  ladder.states.push_back(parked("ps4_deep_sleep", 0.005, 400.0));
  ladder.states.push_back(parked("ps3_sleep", 0.05, 50.0));
  ladder.states.push_back(tier("ps2", 1.9, 3.3, 900.0));
  ladder.states.push_back(tier("ps1", 3.1, 5.4, 1'800.0));
  ladder.states.push_back(tier("ps0", 5.2, 8.5, 2'800.0));

  clear_edges(ladder);
  // Tier shifts are electrical: tens of microseconds.
  for (const char* a : {"ps0", "ps1", "ps2"}) {
    for (const char* b : {"ps0", "ps1", "ps2"}) {
      if (std::string(a) != b) set_edge(ladder, a, b, 0.05, 0.0003);
    }
  }
  // Park entries (autonomous power-state transitions).
  for (const char* l : {"ps0", "ps1", "ps2"}) {
    set_edge(ladder, l, "ps3_sleep", 0.01, 0.0001);
    set_edge(ladder, l, "ps4_deep_sleep", 0.01, 0.0001);
  }
  set_edge(ladder, "ps3_sleep", "ps4_deep_sleep", 0.1, 0.00001);
  // Millisecond-scale wakes, straight to PS0.
  set_edge(ladder, "ps3_sleep", "ps0", 5.0, 0.02);
  set_edge(ladder, "ps4_deep_sleep", "ps0", 14.0, 0.08);
  return ladder;
}

}  // namespace

const std::vector<std::string>& PowerLadder::preset_names() {
  static const std::vector<std::string> names = {
      "ultrastar_36z15", "scsi_multi_idle", "nvme_tiered"};
  return names;
}

bool PowerLadder::is_preset(const std::string& preset) {
  const std::vector<std::string>& names = preset_names();
  return std::find(names.begin(), names.end(), preset) != names.end();
}

PowerLadder PowerLadder::preset(const std::string& preset) {
  PowerLadder ladder;
  if (preset == "ultrastar_36z15") {
    ladder = make_ultrastar_36z15();
  } else if (preset == "scsi_multi_idle") {
    ladder = make_scsi_multi_idle();
  } else if (preset == "nvme_tiered") {
    ladder = make_nvme_tiered();
  } else {
    throw Error("unknown device preset '" + preset + "' (have: " +
                join(preset_names(), ", ") + ")");
  }
  ladder.validate();
  return ladder;
}

}  // namespace sdpm::disk
