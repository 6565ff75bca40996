// sdpm::api::JobSpec — the one versioned description of a simulation job.
//
// Historically a job was scattered over three overlapping option structs:
// sim::SimOptions (replay), trace::GeneratorOptions (access model) and the
// experiments::ExperimentConfig sweep-cell config (subsystem + compiler +
// noise + faults), each with its own defaults.  JobSpec collapses them into
// a single flat, versioned, JSON-round-trippable record that the CLI, the
// service wire protocol and the daemon's batching/fingerprinting all share.
// The internal structs still exist, but only as implementation details
// behind to_config(); every tool builds a JobSpec.
//
// DEFAULTING RULES (the single authoritative statement):
//   - Every field of JobSpec carries its default in this header; a
//     default-constructed JobSpec is the paper's default configuration
//     (swim is the sensitivity-study subject, so `benchmark` defaults to
//     "swim"; all seven schemes; no transformation; 8 disks x 64 KB
//     stripes; 6 MB buffer cache; paper-default timing noise; no faults).
//   - `schemes` empty means "all seven, in presentation order".
//   - `stripe_factor` 0 means "equal to `disks`" (whole-subsystem striping,
//     the Table 1 default); any other width must be explicit.
//   - `block_size` 0 means "each array's stripe size" (the generator rule).
//   - JSON documents may omit any field: a missing field takes the default
//     above.  Unknown fields are rejected — schema version 1 is strict, so
//     a typo'd key fails loudly instead of silently meaning "default".
//   - `version` must be present in a parsed document only when it is not 1;
//     documents written by to_json() always carry it.
//
// COMPATIBILITY POLICY: kJobSpecSchemaVersion bumps only when a field
// changes meaning or a default changes value (additive optional fields do
// not bump it).  A parser accepts documents with version <= its own and
// rejects newer ones, so an old daemon never silently misreads a newer
// client's spec.
//
// SCHEMA VERSION 2 adds the `device` field: a preset name (see
// disk::PowerLadder::preset_names) or an inline power-ladder descriptor
// object (disk::PowerLadder::to_json format).  Version-1 documents keep
// parsing and run on the default `ultrastar_36z15` device; Session attaches
// a structured deprecation note to their JobResult.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "experiments/runner.h"
#include "util/json.h"
#include "util/units.h"

namespace sdpm::api {

inline constexpr int kJobSpecSchemaVersion = 2;

struct JobSpec {
  int version = kJobSpecSchemaVersion;
  /// Display label; empty derives "<benchmark>/<transform>" on demand.
  std::string label;

  // --- workload ---------------------------------------------------------
  std::string benchmark = "swim";
  /// Scheme names ("Base".."CMDRPM"); empty = all seven.
  std::vector<std::string> schemes;
  /// Code transformation: none | LF | TL | LF+DL | TL+DL.
  std::string transform = "none";

  // --- disk subsystem ---------------------------------------------------
  int disks = 8;
  Bytes stripe_size = kib(64);
  int stripe_factor = 0;  ///< 0 = `disks`
  int starting_disk = 0;
  /// Device preset name ("" = the ultrastar_36z15 default).  Mutually
  /// exclusive with `device_inline_json`.
  std::string device;
  /// Canonical JSON (PowerLadder::to_json().dump()) of an inline ladder
  /// descriptor; "" = none.  Set via JobSpecBuilder::device_ladder or a v2
  /// document whose "device" field is an object.
  std::string device_inline_json;

  // --- access model (was trace::GeneratorOptions) -----------------------
  Bytes block_size = 0;  ///< 0 = per-array stripe size
  Bytes cache_bytes = mib(6);
  double power_call_overhead_ms = 0.02;  ///< Tm, paper Eq. 1
  double prefetch_lead_ms = 0;

  // --- timing noise (estimated-vs-actual gap, Table 3) ------------------
  double noise_sigma = 0.20;
  std::int64_t noise_seed = 0x5d9f00d5LL;
  double profile_sigma = 0.20;
  std::int64_t profile_seed = 0x9e0f11e5eedLL;

  // --- compiler ---------------------------------------------------------
  bool preactivate = true;
  Bytes tile_bytes = 256 * 1024;
  std::int64_t call_site_granularity = 1;

  // --- fault injection (was sim::FaultConfig) ---------------------------
  double fault_spinup = 0;
  double fault_media = 0;
  double fault_jitter = 0;
  double fault_drop = 0;
  int fault_retries = 4;
  std::int64_t fault_seed = 0x5d12fa071f5LL;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;

  /// The label to display: `label` if set, else "benchmark/transform".
  std::string display_label() const;

  /// Validate every field (benchmark exists, schemes and transform parse,
  /// ranges are sane); throws sdpm::Error naming the offending field.
  void validate() const;

  /// Lower to the internal experiment configuration.  Calls validate().
  experiments::ExperimentConfig to_config() const;

  /// The scheme list this spec resolves to (all seven when empty).
  std::vector<experiments::Scheme> resolved_schemes() const;

  /// The disk model this spec runs on: the inline ladder when set, else
  /// the named preset, else the paper's default disk.
  disk::DiskParameters resolved_device() const;

  /// JSON document carrying every field (defaults included), keys sorted.
  Json to_json() const;

  /// Parse a document produced by to_json() or written by hand; missing
  /// fields take defaults, unknown fields and newer versions are rejected.
  static JobSpec from_json(const Json& json);

  /// Canonical byte representation: to_json().dump().  Two specs are the
  /// same job exactly when their canonical strings are equal — the daemon
  /// batches on it and it round-trips through from_json bit for bit.
  std::string canonical_json() const;
};

/// Fluent builder for the common construction sites (tests, tools):
///   JobSpec spec = JobSpecBuilder("swim").scheme("CMDRPM").disks(4).build();
/// build() validates and throws on an inconsistent spec.
class JobSpecBuilder {
 public:
  JobSpecBuilder() = default;
  explicit JobSpecBuilder(std::string benchmark) {
    spec_.benchmark = std::move(benchmark);
  }

  JobSpecBuilder& label(std::string v) { spec_.label = std::move(v); return *this; }
  JobSpecBuilder& benchmark(std::string v) { spec_.benchmark = std::move(v); return *this; }
  JobSpecBuilder& scheme(const std::string& v) { spec_.schemes.push_back(v); return *this; }
  JobSpecBuilder& schemes(std::vector<std::string> v) { spec_.schemes = std::move(v); return *this; }
  JobSpecBuilder& transform(std::string v) { spec_.transform = std::move(v); return *this; }
  JobSpecBuilder& disks(int v) { spec_.disks = v; return *this; }
  JobSpecBuilder& stripe_size(Bytes v) { spec_.stripe_size = v; return *this; }
  JobSpecBuilder& stripe_factor(int v) { spec_.stripe_factor = v; return *this; }
  JobSpecBuilder& starting_disk(int v) { spec_.starting_disk = v; return *this; }
  JobSpecBuilder& device(std::string v) { spec_.device = std::move(v); return *this; }
  /// Attach an inline power-ladder descriptor (stored as canonical JSON).
  JobSpecBuilder& device_ladder(const disk::PowerLadder& ladder);
  JobSpecBuilder& block_size(Bytes v) { spec_.block_size = v; return *this; }
  JobSpecBuilder& cache_bytes(Bytes v) { spec_.cache_bytes = v; return *this; }
  JobSpecBuilder& noise(double sigma) {
    spec_.noise_sigma = sigma;
    spec_.profile_sigma = sigma;
    return *this;
  }
  JobSpecBuilder& noise_seed(std::int64_t v) { spec_.noise_seed = v; return *this; }
  JobSpecBuilder& preactivate(bool v) { spec_.preactivate = v; return *this; }
  JobSpecBuilder& tile_bytes(Bytes v) { spec_.tile_bytes = v; return *this; }
  JobSpecBuilder& fault_spinup(double v) { spec_.fault_spinup = v; return *this; }
  JobSpecBuilder& fault_media(double v) { spec_.fault_media = v; return *this; }
  JobSpecBuilder& fault_jitter(double v) { spec_.fault_jitter = v; return *this; }
  JobSpecBuilder& fault_drop(double v) { spec_.fault_drop = v; return *this; }
  JobSpecBuilder& fault_seed(std::int64_t v) { spec_.fault_seed = v; return *this; }

  /// Validate and return the spec (throws sdpm::Error when invalid).
  JobSpec build() const {
    spec_.validate();
    return spec_;
  }

 private:
  JobSpec spec_;
};

/// Parse a scheme name; empty optional for unknown names.
std::optional<experiments::Scheme> scheme_from_name(const std::string& name);

}  // namespace sdpm::api
