#include "api/job_spec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "disk/ladder.h"
#include "util/error.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

namespace sdpm::api {
namespace {

/// to_json() and from_json() each list every field; from_json()'s strict
/// unknown-key check walks the parsed object against the key set a default
/// spec's to_json() emits (it writes every field, so the set is total).

void require(bool condition, const std::string& message) {
  if (!condition) throw Error("JobSpec: " + message);
}

double get_double(const Json& json, const char* key, double fallback) {
  const Json* field = json.find(key);
  return field == nullptr ? fallback : field->as_double();
}

std::int64_t get_int(const Json& json, const char* key,
                     std::int64_t fallback) {
  const Json* field = json.find(key);
  return field == nullptr ? fallback : field->as_int();
}

bool get_bool(const Json& json, const char* key, bool fallback) {
  const Json* field = json.find(key);
  return field == nullptr ? fallback : field->as_bool();
}

std::string get_string(const Json& json, const char* key,
                       const std::string& fallback) {
  const Json* field = json.find(key);
  return field == nullptr ? fallback : field->as_string();
}

/// Parse a transformation name; empty optional for unknown names.
std::optional<core::Transformation> transform_from_name(
    const std::string& name) {
  using core::Transformation;
  for (const Transformation t :
       {Transformation::kNone, Transformation::kLF, Transformation::kTL,
        Transformation::kLFDL, Transformation::kTLDL}) {
    if (name == core::to_string(t)) return t;
  }
  return std::nullopt;
}

}  // namespace

std::optional<experiments::Scheme> scheme_from_name(const std::string& name) {
  for (const experiments::Scheme s : experiments::all_schemes()) {
    if (name == experiments::to_string(s)) return s;
  }
  return std::nullopt;
}

std::string JobSpec::display_label() const {
  if (!label.empty()) return label;
  return benchmark + "/" + transform;
}

void JobSpec::validate() const {
  require(version >= 1 && version <= kJobSpecSchemaVersion,
          str_printf("unsupported schema version %d (this build understands "
                     "1..%d)",
                     version, kJobSpecSchemaVersion));
  const std::vector<std::string> known = workloads::benchmark_names();
  require(std::find(known.begin(), known.end(), benchmark) != known.end(),
          "unknown benchmark '" + benchmark + "'");
  for (const std::string& name : schemes) {
    require(scheme_from_name(name).has_value(),
            "unknown scheme '" + name + "'");
  }
  require(transform_from_name(transform).has_value(),
          "unknown transform '" + transform + "'");
  require(disks > 0, "disks must be positive");
  require(stripe_size > 0, "stripe_size must be positive");
  require(stripe_factor >= 0 && stripe_factor <= disks,
          "stripe_factor must be in [0, disks]");
  require(starting_disk >= 0 && starting_disk < disks,
          "starting_disk must be in [0, disks)");
  require(block_size >= 0, "block_size must be non-negative");
  require(cache_bytes >= 0, "cache_bytes must be non-negative");
  // A JSON number may overflow to inf (1e999); no timing field is usable
  // there, so refuse it at admission instead of failing the job later.
  for (const auto& [field, value] :
       {std::pair{"power_call_overhead_ms", power_call_overhead_ms},
        std::pair{"prefetch_lead_ms", prefetch_lead_ms},
        std::pair{"noise_sigma", noise_sigma},
        std::pair{"profile_sigma", profile_sigma}}) {
    require(std::isfinite(value) && value >= 0,
            str_printf("%s must be finite and non-negative, got %g", field,
                       value));
  }
  require(tile_bytes > 0, "tile_bytes must be positive");
  require(call_site_granularity > 0, "call_site_granularity must be positive");
  // Fault ranges are re-validated by FaultConfig::validate(); checking here
  // gives the error the JobSpec field name instead of the internal one.
  require(fault_spinup >= 0 && fault_spinup <= 1, "fault_spinup not in [0,1]");
  require(fault_media >= 0 && fault_media <= 1, "fault_media not in [0,1]");
  require(fault_jitter >= 0 && fault_jitter < 1, "fault_jitter not in [0,1)");
  require(fault_drop >= 0 && fault_drop <= 1, "fault_drop not in [0,1]");
  require(fault_retries >= 0, "fault_retries must be non-negative");
  require(device.empty() || device_inline_json.empty(),
          "device names a preset and carries an inline ladder; pick one");
  require(device.empty() || disk::PowerLadder::is_preset(device),
          "unknown device preset '" + device + "' (known: " +
              join(disk::PowerLadder::preset_names(), ", ") + ")");
  if (!device_inline_json.empty()) {
    // An inline ladder is stored pre-canonicalised; re-validating here keeps
    // hand-assembled specs honest.  from_json errors carry the ladder field.
    disk::PowerLadder::from_json(Json::parse(device_inline_json));
  }
}

experiments::ExperimentConfig JobSpec::to_config() const {
  validate();
  experiments::ExperimentConfig config;
  config.disk = resolved_device();
  config.total_disks = disks;
  config.striping.starting_disk = starting_disk;
  config.striping.stripe_factor = stripe_factor == 0 ? disks : stripe_factor;
  config.striping.stripe_size = stripe_size;
  config.gen.block_size = block_size;
  config.gen.cache_bytes = cache_bytes;
  config.gen.power_call_overhead_ms = power_call_overhead_ms;
  config.gen.prefetch_lead_ms = prefetch_lead_ms;
  config.transform = *transform_from_name(transform);
  config.actual_noise.sigma = noise_sigma;
  config.actual_noise.seed = static_cast<std::uint64_t>(noise_seed);
  config.profile_noise.sigma = profile_sigma;
  config.profile_noise.seed = static_cast<std::uint64_t>(profile_seed);
  config.call_site_granularity = call_site_granularity;
  config.preactivate = preactivate;
  config.tile_bytes = tile_bytes;
  config.faults.spin_up_failure_prob = fault_spinup;
  config.faults.media_error_prob = fault_media;
  config.faults.service_jitter = fault_jitter;
  config.faults.dropped_directive_prob = fault_drop;
  config.faults.max_spin_up_retries = fault_retries;
  config.faults.seed = static_cast<std::uint64_t>(fault_seed);
  config.faults.validate();
  return config;
}

std::vector<experiments::Scheme> JobSpec::resolved_schemes() const {
  if (schemes.empty()) return experiments::all_schemes();
  std::vector<experiments::Scheme> out;
  out.reserve(schemes.size());
  for (const std::string& name : schemes) {
    const std::optional<experiments::Scheme> scheme = scheme_from_name(name);
    require(scheme.has_value(), "unknown scheme '" + name + "'");
    out.push_back(*scheme);
  }
  return out;
}

disk::DiskParameters JobSpec::resolved_device() const {
  if (!device_inline_json.empty()) {
    return disk::DiskParameters::from_ladder(
        disk::PowerLadder::from_json(Json::parse(device_inline_json)));
  }
  if (!device.empty()) return disk::DiskParameters::preset(device);
  return disk::DiskParameters::ultrastar_36z15();
}

Json JobSpec::to_json() const {
  Json schemes_json = Json::array();
  for (const std::string& name : schemes) schemes_json.push_back(Json(name));
  Json json = Json::object();
  json.set("version", version)
      .set("label", label)
      .set("benchmark", benchmark)
      .set("schemes", std::move(schemes_json))
      .set("transform", transform)
      .set("disks", disks)
      .set("stripe_size", stripe_size)
      .set("stripe_factor", stripe_factor)
      .set("starting_disk", starting_disk)
      .set("device", device_inline_json.empty()
                         ? Json(device)
                         : Json::parse(device_inline_json))
      .set("block_size", block_size)
      .set("cache_bytes", cache_bytes)
      .set("power_call_overhead_ms", power_call_overhead_ms)
      .set("prefetch_lead_ms", prefetch_lead_ms)
      .set("noise_sigma", noise_sigma)
      .set("noise_seed", noise_seed)
      .set("profile_sigma", profile_sigma)
      .set("profile_seed", profile_seed)
      .set("preactivate", preactivate)
      .set("tile_bytes", tile_bytes)
      .set("call_site_granularity", call_site_granularity)
      .set("fault_spinup", fault_spinup)
      .set("fault_media", fault_media)
      .set("fault_jitter", fault_jitter)
      .set("fault_drop", fault_drop)
      .set("fault_retries", fault_retries)
      .set("fault_seed", fault_seed);
  return json;
}

JobSpec JobSpec::from_json(const Json& json) {
  require(json.is_object(), "a job spec must be a JSON object");
  JobSpec spec;
  // Strict schema: every key in the document must be a key to_json()
  // writes.  The defaults object is built once per call; specs are parsed
  // at submission time, never per request, so clarity wins over caching.
  const Json known = JobSpec().to_json();
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    require(known.contains(key), "unknown field '" + key + "'");
  }
  spec.version =
      static_cast<int>(get_int(json, "version", kJobSpecSchemaVersion));
  require(spec.version >= 1 && spec.version <= kJobSpecSchemaVersion,
          str_printf("unsupported schema version %d (this build understands "
                     "1..%d)",
                     spec.version, kJobSpecSchemaVersion));
  spec.label = get_string(json, "label", spec.label);
  spec.benchmark = get_string(json, "benchmark", spec.benchmark);
  if (const Json* field = json.find("schemes")) {
    spec.schemes.clear();
    for (const Json& name : field->as_array()) {
      spec.schemes.push_back(name.as_string());
    }
  }
  spec.transform = get_string(json, "transform", spec.transform);
  spec.disks = static_cast<int>(get_int(json, "disks", spec.disks));
  spec.stripe_size = get_int(json, "stripe_size", spec.stripe_size);
  spec.stripe_factor =
      static_cast<int>(get_int(json, "stripe_factor", spec.stripe_factor));
  spec.starting_disk =
      static_cast<int>(get_int(json, "starting_disk", spec.starting_disk));
  if (const Json* field = json.find("device")) {
    if (field->is_object()) {
      // Inline ladder: parse (which validates) and keep the canonical dump
      // so equal devices fingerprint equally regardless of author key order.
      spec.device_inline_json =
          disk::PowerLadder::from_json(*field).to_json().dump();
    } else {
      spec.device = field->as_string();
    }
  }
  spec.block_size = get_int(json, "block_size", spec.block_size);
  spec.cache_bytes = get_int(json, "cache_bytes", spec.cache_bytes);
  spec.power_call_overhead_ms = get_double(json, "power_call_overhead_ms",
                                           spec.power_call_overhead_ms);
  spec.prefetch_lead_ms =
      get_double(json, "prefetch_lead_ms", spec.prefetch_lead_ms);
  spec.noise_sigma = get_double(json, "noise_sigma", spec.noise_sigma);
  spec.noise_seed = get_int(json, "noise_seed", spec.noise_seed);
  spec.profile_sigma = get_double(json, "profile_sigma", spec.profile_sigma);
  spec.profile_seed = get_int(json, "profile_seed", spec.profile_seed);
  spec.preactivate = get_bool(json, "preactivate", spec.preactivate);
  spec.tile_bytes = get_int(json, "tile_bytes", spec.tile_bytes);
  spec.call_site_granularity =
      get_int(json, "call_site_granularity", spec.call_site_granularity);
  spec.fault_spinup = get_double(json, "fault_spinup", spec.fault_spinup);
  spec.fault_media = get_double(json, "fault_media", spec.fault_media);
  spec.fault_jitter = get_double(json, "fault_jitter", spec.fault_jitter);
  spec.fault_drop = get_double(json, "fault_drop", spec.fault_drop);
  spec.fault_retries =
      static_cast<int>(get_int(json, "fault_retries", spec.fault_retries));
  spec.fault_seed = get_int(json, "fault_seed", spec.fault_seed);
  spec.validate();
  return spec;
}

std::string JobSpec::canonical_json() const { return to_json().dump(); }

JobSpecBuilder& JobSpecBuilder::device_ladder(const disk::PowerLadder& ladder) {
  spec_.device_inline_json = ladder.to_json().dump();
  return *this;
}

}  // namespace sdpm::api
