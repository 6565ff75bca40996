// bench_service_stress — end-to-end service latency/throughput under
// concurrent load, with a p99 regression gate.
//
//   bench_service_stress [--clients N] [--jobs N] [--capacity N]
//                        [--batch N] [--workers N] [--socket PATH]
//                        [--out FILE] [--compare FILE] [--tolerance PCT]
//                        [--telemetry-dump FILE] [--trace-out FILE]
//
// Starts an in-process sdpm_serviced daemon on a Unix socket, hammers it
// with --clients concurrent client connections submitting --jobs jobs
// each (submit, then result --wait), and reports a BenchSnapshot (suite
// "service"): jobs/s throughput plus client-observed e2e and
// daemon-side queue-wait p50/p99.  The snapshot is the committed
// BENCH_service.json baseline; --compare FILE re-checks a fresh run
// against it with the calibration-normalized comparator and exits 4 on a
// regression (throughput drop beyond --tolerance, or normalized e2e p99
// growth beyond twice that) — the same exit-4 contract as
// `sdpm_cli bench --compare`.
//
// --telemetry-dump and --trace-out pass through to the daemon: the former
// leaves the final per-stage telemetry snapshot on disk, the latter
// writes a chrome://tracing file in which the first job of the first
// client carries a trace_id, so the artifact demonstrates service-lane /
// disk-track stitching under load.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/job_spec.h"
#include "experiments/bench_baseline.h"
#include "obs/latency.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "service/client.h"
#include "service/daemon.h"
#include "tools/args.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace sdpm;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n";
  std::cerr << "usage: bench_service_stress [--clients N] [--jobs N] "
               "[--capacity N] [--batch N] [--workers N] [--socket PATH] "
               "[--out FILE] [--compare FILE] [--tolerance PCT] "
               "[--telemetry-dump FILE] [--trace-out FILE]\n";
  std::exit(2);
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, 1, usage);
  args.allow_only({"clients", "jobs", "capacity", "batch", "workers",
                   "socket", "out", "compare", "tolerance", "telemetry-dump",
                   "trace-out"});

  const std::int64_t clients = args.get_int("clients", 32);
  const std::int64_t jobs_per_client = args.get_int("jobs", 64);
  if (clients < 1) usage("--clients must be >= 1");
  if (jobs_per_client < 1) usage("--jobs must be >= 1");
  const double tolerance = args.get_double("tolerance", 15.0);

  service::DaemonOptions options;
  options.socket_path =
      args.get("socket", str_printf("/tmp/sdpm_bench_stress.%d.sock",
                                    static_cast<int>(::getpid())));
  options.queue_capacity = args.get_count("capacity", 4096);
  if (args.has("batch")) options.max_batch = args.get_count("batch", 0);
  options.jobs = args.get_count("workers", options.jobs);
  options.telemetry_dump = args.get("telemetry-dump");

  obs::EventTracer tracer;
  std::ofstream trace_file;
  std::optional<obs::ChromeTraceSink> chrome;
  const bool traced = args.has("trace-out");
  if (traced) {
    trace_file.open(args.get("trace-out"));
    if (!trace_file) usage("cannot open '" + args.get("trace-out") + "'");
    tracer.add_sink(chrome.emplace(trace_file));
    options.tracer = &tracer;
  }

  try {
    // Calibrate BEFORE the stress run so the measurement does not share
    // the machine with the daemon's worker pool.
    const double calib = experiments::calibration_score();

    service::ServiceDaemon daemon(options);
    daemon.start();

    obs::LatencyHistogram e2e;  // client-observed submit -> terminal
    std::atomic<std::int64_t> completed{0};
    std::atomic<std::int64_t> failed{0};

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          service::ClientOptions client_options;
          client_options.connect_attempts = 40;
          client_options.jitter_seed =
              0x5d9f2e3b4c1a7081ull + static_cast<std::uint64_t>(c);
          service::Client client(options.socket_path, client_options);
          for (int j = 0; j < jobs_per_client; ++j) {
            api::JobSpec spec =
                api::JobSpecBuilder("galgel").scheme("Base").build();
            spec.label = str_printf("stress-c%d-j%d", c, j);
            service::TraceContext trace;
            if (traced && c == 0 && j == 0) {
              // One traced job per run keeps the chrome artifact small
              // while still demonstrating lane/track stitching.
              trace.trace_id = 0xbe5c0de5e55101ull;
              trace.span_id = 1;
            }
            const auto t_submit = std::chrono::steady_clock::now();
            const std::int64_t id = client.submit(spec, 64, trace);
            const Json job = client.result(id, /*wait=*/true);
            e2e.record(wall_ms_since(t_submit));
            if (job.at("state").as_string() == "done") {
              completed.fetch_add(1, std::memory_order_relaxed);
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } catch (const std::exception& e) {
          failed.fetch_add(jobs_per_client, std::memory_order_relaxed);
          std::cerr << "client " << c << " died: " << e.what() << "\n";
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = wall_ms_since(t0);

    // Daemon-side queue-wait quantiles, read over the wire like any
    // monitoring client would.
    double queue_wait_p50 = 0;
    double queue_wait_p99 = 0;
    {
      service::Client probe(options.socket_path);
      const Json stages =
          probe.telemetry().at("telemetry").at("stages");
      queue_wait_p50 = stages.at("queue_wait").at("p50_ms").as_double();
      queue_wait_p99 = stages.at("queue_wait").at("p99_ms").as_double();
      probe.shutdown();
    }
    daemon.wait();
    tracer.close();

    const obs::LatencyHistogram::Quantiles q = e2e.quantiles();
    experiments::BenchSnapshot snap;
    snap.suite = "service";
    snap.jobs = options.jobs != 0 ? options.jobs : default_jobs();
    snap.calib_score = calib;
    snap.wall_ms = wall_ms;
    snap.requests_simulated = completed.load();
    snap.requests_per_sec =
        wall_ms > 0 ? completed.load() / (wall_ms / 1000.0) : 0;
    snap.clients = clients;
    snap.e2e_p50_ms = q.p50;
    snap.e2e_p99_ms = q.p99;
    snap.queue_wait_p50_ms = queue_wait_p50;
    snap.queue_wait_p99_ms = queue_wait_p99;

    const std::string json = snap.to_json();
    if (args.has("out")) {
      std::ofstream out(args.get("out"));
      if (!out) usage("cannot open '" + args.get("out") + "'");
      out << json << "\n";
    }
    std::cout << json << "\n";

    if (failed.load() > 0) {
      std::cerr << "bench_service_stress: " << failed.load()
                << " jobs failed\n";
      return 1;
    }

    if (args.has("compare")) {
      std::ifstream in(args.get("compare"));
      if (!in) usage("cannot open '" + args.get("compare") + "'");
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const experiments::BenchSnapshot baseline =
          experiments::BenchSnapshot::from_json(text);
      const experiments::BenchComparison cmp =
          experiments::compare_snapshots(baseline, snap, tolerance);
      for (const std::string& note : cmp.notes) {
        std::cerr << note << "\n";
      }
      if (cmp.regressed) return 4;
    }
    return 0;
  } catch (const sdpm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
