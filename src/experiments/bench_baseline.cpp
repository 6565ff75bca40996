#include "experiments/bench_baseline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.h"
#include "util/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sdpm::experiments {

std::string BenchSnapshot::to_json() const {
  // Hand-formatted: multiline with sorted keys and fixed precision, so
  // committed baselines diff cleanly and regenerating an unchanged
  // snapshot is byte-stable modulo the measured numbers.
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  const bool service = suite == "service";
  os << "{\n"
     << "  \"calib_score\": " << calib_score << ",\n"
     << "  \"cells_completed\": " << cells_completed << ",\n";
  if (service) {
    os << "  \"clients\": " << clients << ",\n"
       << "  \"e2e_p50_ms\": " << e2e_p50_ms << ",\n"
       << "  \"e2e_p99_ms\": " << e2e_p99_ms << ",\n";
  }
  os << "  \"jobs\": " << jobs << ",\n"
     << "  \"null_tracer_overhead_pct\": " << null_tracer_overhead_pct
     << ",\n";
  if (service) {
    os << "  \"queue_wait_p50_ms\": " << queue_wait_p50_ms << ",\n"
       << "  \"queue_wait_p99_ms\": " << queue_wait_p99_ms << ",\n";
  }
  os << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
     << "  \"requests_simulated\": " << requests_simulated << ",\n"
     << "  \"schema\": " << schema << ",\n"
     << "  \"suite\": \"" << suite << "\",\n"
     << "  \"wall_ms\": " << wall_ms << "\n"
     << "}";
  return os.str();
}

BenchSnapshot BenchSnapshot::from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  SDPM_REQUIRE(doc.is_object(), "bench snapshot must be a JSON object");
  BenchSnapshot snap;
  snap.schema = static_cast<int>(doc.at("schema").as_int());
  SDPM_REQUIRE(snap.schema == 1, "unsupported bench snapshot schema");
  snap.suite = doc.at("suite").as_string();
  SDPM_REQUIRE(snap.suite == "simulator" || snap.suite == "sweep" ||
                   snap.suite == "service",
               "bench snapshot suite must be 'simulator', 'sweep' or "
               "'service'");
  snap.jobs = static_cast<unsigned>(doc.at("jobs").as_int());
  snap.calib_score = doc.at("calib_score").as_double();
  snap.wall_ms = doc.at("wall_ms").as_double();
  snap.requests_simulated = doc.at("requests_simulated").as_int();
  snap.requests_per_sec = doc.at("requests_per_sec").as_double();
  if (const Json* f = doc.find("null_tracer_overhead_pct")) {
    snap.null_tracer_overhead_pct = f->as_double();
  }
  if (const Json* f = doc.find("cells_completed")) {
    snap.cells_completed = f->as_int();
  }
  if (const Json* f = doc.find("clients")) snap.clients = f->as_int();
  if (const Json* f = doc.find("e2e_p50_ms")) {
    snap.e2e_p50_ms = f->as_double();
  }
  if (const Json* f = doc.find("e2e_p99_ms")) {
    snap.e2e_p99_ms = f->as_double();
  }
  if (const Json* f = doc.find("queue_wait_p50_ms")) {
    snap.queue_wait_p50_ms = f->as_double();
  }
  if (const Json* f = doc.find("queue_wait_p99_ms")) {
    snap.queue_wait_p99_ms = f->as_double();
  }
  return snap;
}

double calibration_score() {
  // A fixed integer-mix + dependent FP multiply-add chain: roughly the
  // replay loop's instruction profile (address arithmetic feeding double
  // accumulation).  Deterministic by construction — no input, no
  // randomness — so the only variable is the machine.  Best-of-rounds
  // discards scheduler noise the same way the simulator suite does.
  constexpr int kRounds = 5;
  constexpr std::int64_t kIters = 4'000'000;
  double best_us = std::numeric_limits<double>::infinity();
  double sink = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 1.0;
    for (std::int64_t i = 0; i < kIters; ++i) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      acc = acc * 0.999999 + static_cast<double>(x >> 40) * 1e-9;
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    sink += acc;
    if (us > 0) best_us = std::min(best_us, us);
  }
  // Keep the accumulator observable so the work cannot be elided.
  volatile double observe = sink;
  (void)observe;
  SDPM_REQUIRE(best_us < std::numeric_limits<double>::infinity(),
               "calibration loop measured no time");
  return static_cast<double>(kIters) / best_us;
}

std::int64_t peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::int64_t>(usage.ru_maxrss);  // KiB
#endif
#else
  return 0;
#endif
}

namespace {

std::string fmt_pct(double value) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << value;
  return os.str();
}

}  // namespace

BenchComparison compare_snapshots(const BenchSnapshot& baseline,
                                  const BenchSnapshot& fresh,
                                  double tolerance_pct) {
  SDPM_REQUIRE(baseline.suite == fresh.suite,
               "bench suite mismatch between baseline and fresh snapshot");
  SDPM_REQUIRE(baseline.schema == fresh.schema,
               "bench schema mismatch between baseline and fresh snapshot");
  SDPM_REQUIRE(tolerance_pct >= 0, "tolerance must be non-negative");
  SDPM_REQUIRE(baseline.requests_per_sec > 0,
               "baseline snapshot has no throughput");
  SDPM_REQUIRE(fresh.requests_per_sec > 0,
               "fresh snapshot has no throughput");

  BenchComparison cmp;
  // Normalize by the calibration score when both sides have one; raw
  // otherwise (a hand-written baseline without calibration still works,
  // it just assumes comparable machines).
  const bool calibrated =
      baseline.calib_score > 0 && fresh.calib_score > 0;
  cmp.baseline_normalized =
      calibrated ? baseline.requests_per_sec / baseline.calib_score
                 : baseline.requests_per_sec;
  cmp.fresh_normalized = calibrated
                             ? fresh.requests_per_sec / fresh.calib_score
                             : fresh.requests_per_sec;
  cmp.delta_pct =
      (cmp.fresh_normalized / cmp.baseline_normalized - 1.0) * 100.0;

  if (baseline.jobs != fresh.jobs) {
    // Throughput only compares like-for-like at equal parallelism (a
    // 4-job sweep on a 1-core box loses to the same sweep at 1 job, and
    // calibration cannot correct for core count).  Mismatches stay
    // non-fatal so hand-run comparisons still print, but CI pins --jobs
    // to the committed baseline's value.
    cmp.notes.push_back("note: jobs differ (baseline " +
                        std::to_string(baseline.jobs) + ", fresh " +
                        std::to_string(fresh.jobs) +
                        ") — throughput is only like-for-like at equal "
                        "parallelism");
  }

  const bool throughput_regressed = cmp.delta_pct < -tolerance_pct;
  cmp.notes.push_back(
      std::string(calibrated ? "calibrated" : "uncalibrated") +
      " throughput " + (cmp.delta_pct >= 0 ? "+" : "") +
      fmt_pct(cmp.delta_pct) + "% vs baseline (tolerance " +
      fmt_pct(tolerance_pct) + "%): " +
      (throughput_regressed ? "REGRESSED" : "ok"));
  if (throughput_regressed) cmp.regressed = true;

  if (fresh.suite == "simulator") {
    // The observability contract (DESIGN.md §10): the sink-less tracer
    // path must stay within ~2% of the untraced replay.  The band widens
    // slightly with the caller's tolerance to absorb timing noise.
    cmp.null_tracer_limit_pct = 2.0 + 0.2 * tolerance_pct;
    const bool tracer_regressed =
        fresh.null_tracer_overhead_pct > cmp.null_tracer_limit_pct;
    cmp.notes.push_back("null-tracer overhead " +
                        fmt_pct(fresh.null_tracer_overhead_pct) +
                        "% (limit " + fmt_pct(cmp.null_tracer_limit_pct) +
                        "%): " + (tracer_regressed ? "REGRESSED" : "ok"));
    if (tracer_regressed) cmp.regressed = true;
  }

  if (fresh.suite == "service" && baseline.e2e_p99_ms > 0 &&
      fresh.e2e_p99_ms > 0) {
    // Latency shrinks on faster machines, so normalize by MULTIPLYING
    // with the calibration score (the inverse of the throughput
    // normalization).  Tails are noisier than means: the band is twice
    // the throughput tolerance.
    const double baseline_p99 = calibrated
                                    ? baseline.e2e_p99_ms *
                                          baseline.calib_score
                                    : baseline.e2e_p99_ms;
    const double fresh_p99 =
        calibrated ? fresh.e2e_p99_ms * fresh.calib_score : fresh.e2e_p99_ms;
    cmp.p99_delta_pct = (fresh_p99 / baseline_p99 - 1.0) * 100.0;
    cmp.p99_limit_pct = 2.0 * tolerance_pct;
    const bool p99_regressed = cmp.p99_delta_pct > cmp.p99_limit_pct;
    cmp.notes.push_back("e2e p99 latency " +
                        std::string(cmp.p99_delta_pct >= 0 ? "+" : "") +
                        fmt_pct(cmp.p99_delta_pct) + "% vs baseline (limit +" +
                        fmt_pct(cmp.p99_limit_pct) +
                        "%): " + (p99_regressed ? "REGRESSED" : "ok"));
    if (p99_regressed) cmp.regressed = true;
  }
  return cmp;
}

}  // namespace sdpm::experiments
