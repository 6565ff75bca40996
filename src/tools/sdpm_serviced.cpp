// sdpm_serviced — the long-running simulation service.
//
//   sdpm_serviced --socket PATH [--capacity N] [--batch N] [--jobs N]
//                 [--trace-out FILE] [--trace-format jsonl|chrome]
//                 [--state-dir DIR]
//                 [--job-timeout-ms MS] [--max-attempts N]
//                 [--store-max-bytes N] [--fsync-journal]
//                 [--log-json FILE|-] [--telemetry-dump FILE]
//                 [--telemetry-interval-ms MS]
//
// Listens on a Unix domain socket for length-prefixed JSON requests (see
// src/service/protocol.h), admits jobs into a bounded queue with
// per-client round-robin fairness, and evaluates them in batches on a
// shared sweep engine so repeated (program, layout, options) cells hit the
// process-wide trace cache.  `sdpm_cli client --socket PATH ...` is the
// matching client.
//
// Prints "listening on PATH" to stdout once ready (scripts wait for it).
// SIGTERM / SIGINT drain gracefully: admission closes, every job already
// admitted reaches a terminal state, then the daemon exits 0.  A client's
// "shutdown" op does the same.  --trace-out streams per-batch job spans
// and sweep-cell lifecycle events as JSONL.
//
// --state-dir DIR makes the daemon crash-safe: a write-ahead job journal
// (DIR/journal.bin) and a persistent result store (DIR/store) are replayed
// at startup, so a SIGKILLed daemon restarted on the same state dir
// finishes every admitted job exactly once and serves repeated jobs from
// the store.  --job-timeout-ms arms a watchdog that fails overrunning
// jobs; --max-attempts bounds how often a poison job is retried across
// restarts before it is quarantined.
//
// Observability: --log-json streams leveled structured JSONL lifecycle
// events (to a file, or stderr with "-"); --telemetry-dump writes the
// per-stage latency/rate snapshot JSON atomically every
// --telemetry-interval-ms (default 1000) plus once at shutdown;
// --trace-format chrome makes --trace-out emit a chrome://tracing file
// whose service lanes stitch to the simulated-time disk tracks of traced
// submissions (same trace_id).
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/log.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "service/daemon.h"
#include "tools/args.h"
#include "util/error.h"

namespace {

using namespace sdpm;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n";
  std::cerr << "usage: sdpm_serviced --socket PATH [--capacity N] "
               "[--batch N] [--jobs N] [--trace-out FILE] "
               "[--trace-format jsonl|chrome] "
               "[--state-dir DIR] [--job-timeout-ms MS] [--max-attempts N] "
               "[--store-max-bytes N] [--fsync-journal] "
               "[--log-json FILE|-] [--telemetry-dump FILE] "
               "[--telemetry-interval-ms MS]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, 1, usage);
  args.allow_only({"socket", "capacity", "batch", "jobs", "trace-out",
                   "trace-format", "state-dir", "job-timeout-ms",
                   "max-attempts", "store-max-bytes", "fsync-journal",
                   "log-json", "telemetry-dump", "telemetry-interval-ms"});
  if (args.get("socket").empty()) usage("--socket PATH is required");

  service::DaemonOptions options;
  options.socket_path = args.get("socket");
  if (args.has("capacity")) {
    options.queue_capacity = args.get_count("capacity", 0);
    if (options.queue_capacity < 1) usage("--capacity must be >= 1");
  }
  if (args.has("batch")) {
    options.max_batch = args.get_count("batch", 0);
    if (options.max_batch < 1) usage("--batch must be >= 1");
  }
  options.jobs = args.get_count("jobs", options.jobs);
  if (args.has("state-dir")) {
    options.state_dir = args.get("state-dir");
    if (options.state_dir.empty()) usage("--state-dir needs a directory");
  }
  options.job_timeout_ms =
      args.get_double("job-timeout-ms", options.job_timeout_ms);
  if (options.job_timeout_ms < 0) usage("--job-timeout-ms must be >= 0");
  options.max_attempts =
      static_cast<int>(args.get_int("max-attempts", options.max_attempts));
  if (options.max_attempts < 1) usage("--max-attempts must be >= 1");
  options.store_max_bytes =
      args.get_int("store-max-bytes", options.store_max_bytes);
  if (options.store_max_bytes < 1) usage("--store-max-bytes must be >= 1");
  options.fsync_journal = args.has("fsync-journal");
  if (args.has("telemetry-dump")) {
    options.telemetry_dump = args.get("telemetry-dump");
    if (options.telemetry_dump.empty()) usage("--telemetry-dump needs a path");
  }
  options.telemetry_interval_ms =
      args.get_double("telemetry-interval-ms", options.telemetry_interval_ms);
  if (options.telemetry_interval_ms <= 0) {
    usage("--telemetry-interval-ms must be > 0");
  }

  // Observability: job spans stream as JSONL (or a chrome://tracing file)
  // when requested.
  obs::EventTracer tracer;
  std::ofstream trace_file;
  std::optional<obs::JsonlSink> jsonl;
  std::optional<obs::ChromeTraceSink> chrome;
  if (args.has("trace-out")) {
    trace_file.open(args.get("trace-out"));
    if (!trace_file) usage("cannot open '" + args.get("trace-out") + "'");
    const std::string format = args.get("trace-format", "jsonl");
    if (format == "jsonl") {
      tracer.add_sink(jsonl.emplace(trace_file));
    } else if (format == "chrome") {
      tracer.add_sink(chrome.emplace(trace_file));
    } else {
      usage("--trace-format must be jsonl or chrome");
    }
    options.tracer = &tracer;
  } else if (args.has("trace-format")) {
    usage("--trace-format needs --trace-out");
  }

  // Structured JSONL lifecycle log: a file, or stderr with "-".
  std::ofstream log_file;
  std::optional<obs::StructuredLog> log;
  if (args.has("log-json")) {
    const std::string log_path = args.get("log-json");
    if (log_path.empty()) usage("--log-json needs FILE or -");
    if (log_path == "-") {
      log.emplace(std::cerr);
    } else {
      log_file.open(log_path, std::ios::app);
      if (!log_file) usage("cannot open '" + log_path + "'");
      log.emplace(log_file);
    }
    options.log = &*log;
  }

  // Block the termination signals before any thread exists so every
  // daemon thread inherits the mask and only this loop sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    service::ServiceDaemon daemon(options);
    daemon.start();
    std::cout << "listening on " << options.socket_path << std::endl;

    const timespec poll_interval{0, 100'000'000};  // 100 ms
    while (!daemon.shutdown_requested()) {
      const int sig = sigtimedwait(&sigs, nullptr, &poll_interval);
      if (sig == SIGTERM || sig == SIGINT) {
        std::cerr << "sdpm_serviced: draining on signal " << sig << "\n";
        daemon.request_shutdown();
        break;
      }
    }
    daemon.wait();
    tracer.close();
    std::cerr << "sdpm_serviced: drained, exiting\n";
    return 0;
  } catch (const sdpm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
