// ServiceDaemon: the long-running core of sdpm_serviced.
//
// Thread structure:
//   accept thread      blocks in accept(2) on the Unix socket, spawns one
//                      handler thread per connection.
//   handler threads    one per connection; read one request frame, execute
//                      the op, write one response frame, in order.  Blocking
//                      ops (result with wait) only block their own
//                      connection.
//   dispatcher thread  pops admission-queue batches and evaluates each
//                      batch's store misses as ONE api::Session::run_batch
//                      sweep dispatch, so compatible cells share the
//                      process-wide TraceCache and the thread pool (a
//                      traced job dispatches alone through the same call).
//                      Each job's slot maps straight to its outcome: done,
//                      or EXEC_ERROR with the error its evaluation threw;
//                      the rest of the batch still completes.
//
// Shutdown: request_drain() closes admission but keeps serving queries;
// request_shutdown() additionally ends the daemon once the queue is
// drained — wait() then returns with every admitted job in a terminal
// state (the lossless-drain guarantee the SIGTERM path relies on).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/store.h"
#include "service/telemetry.h"

namespace sdpm::obs {
class EventTracer;
class StructuredLog;
}

namespace sdpm::service {

struct DaemonOptions {
  std::string socket_path;
  /// Admission-queue capacity (queued jobs; running jobs do not count).
  std::size_t queue_capacity = 256;
  /// Maximum jobs evaluated per sweep dispatch.
  std::size_t max_batch = 16;
  /// Worker threads for the shared Session; 0 = default_jobs().
  unsigned jobs = 0;
  /// Per-job span tracer (not owned).  Spans are timestamped in wall
  /// milliseconds since the daemon started.
  obs::EventTracer* tracer = nullptr;
  /// Durability root.  When non-empty, start() opens
  /// `<state_dir>/journal.bin` (write-ahead job journal) and
  /// `<state_dir>/store` (persistent result store), replays the journal,
  /// and re-queues every admitted-but-incomplete job exactly once.  Empty
  /// = fully in-memory (the pre-durability behavior).
  std::string state_dir;
  /// Per-job wall-clock deadline in ms; 0 disables the watchdog.  A
  /// running job that overruns is failed with JOB_TIMEOUT.
  double job_timeout_ms = 0;
  /// A recovered job whose journal shows this many dispatches without a
  /// completion is quarantined (failed with QUARANTINED) instead of
  /// re-queued — a poison job cannot crash-loop the daemon forever.
  int max_attempts = 3;
  /// Payload-byte budget of the persistent store.
  std::int64_t store_max_bytes = 256ll << 20;
  /// Per-connection frame cap (request and response).  Tests shrink it to
  /// exercise FRAME_TOO_LARGE / RESULT_TOO_LARGE without 16 MB payloads.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// fsync the journal after every append (power-cut durability).
  bool fsync_journal = false;
  /// Structured JSONL logger for lifecycle diagnostics (not owned); null
  /// keeps the daemon silent (the pre-logging behavior).
  obs::StructuredLog* log = nullptr;
  /// When non-empty, a background thread writes the telemetry snapshot
  /// JSON to this path every `telemetry_interval_ms`, plus once at
  /// shutdown (atomic temp+rename, so scrapers never read a torn file).
  std::string telemetry_dump;
  double telemetry_interval_ms = 1000;
};

class ServiceDaemon {
 public:
  explicit ServiceDaemon(DaemonOptions options);
  ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Bind the socket and start the accept + dispatcher threads.  Throws
  /// sdpm::Error when the socket cannot be bound.
  void start();

  /// Close admission; everything already admitted still runs.
  void request_drain();

  /// Drain, then end the daemon once no queued or running job remains.
  void request_shutdown();

  /// Block until request_shutdown() (local or via the "shutdown" op) has
  /// completed: queue drained, dispatcher exited, connections closed.
  void wait();

  /// True once wait() would return immediately.
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// True once request_shutdown() was called (locally or via the
  /// "shutdown" op); the main thread polls this before calling wait().
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  const std::string& socket_path() const { return options_.socket_path; }
  AdmissionQueue& queue() { return queue_; }
  /// The persistent store, or nullptr when state_dir is empty.
  PersistentStore* store() { return store_.get(); }
  /// Per-stage latency histograms and per-client aggregates (always on;
  /// stamping a stage is an uncontended lock + one bucket increment).
  ServiceTelemetry& telemetry() { return telemetry_; }
  /// The journal, or nullptr when state_dir is empty.
  Journal* journal() { return journal_.get(); }

 private:
  void accept_loop();
  void handle_connection(int fd, std::uint64_t session_id);
  void dispatch_loop();
  void watchdog_loop();
  void telemetry_dump_loop();
  void dump_telemetry();
  void run_batch_jobs(const std::vector<std::shared_ptr<Job>>& batch,
                      double pop_ms);
  JobOutcome save_result(const Job& job, api::JobResult result);
  std::optional<api::JobResult> load_result(const ContentKey& key);
  Json handle_request(const Json& request, std::uint64_t session_id);
  double wall_ms_now() const;
  void close_listener();
  void open_state();  ///< open store + journal, replay, restore the queue
  void finish_job(const std::shared_ptr<Job>& job, JobOutcome outcome,
                  double wall_ms);
  void record_terminal(const Job& job, bool done, double wall_ms);
  void emit_stage(const Job& job, const char* stage, double t0, double t1);

  DaemonOptions options_;
  ServiceTelemetry telemetry_;
  std::unique_ptr<Journal> journal_;  ///< written only through queue_
  AdmissionQueue queue_;
  api::Session session_;
  std::unique_ptr<PersistentStore> store_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread watchdog_thread_;
  std::thread telemetry_thread_;
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<bool> telemetry_stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> done_{false};
  std::int64_t start_ns_ = 0;  ///< steady-clock epoch for span timestamps

  std::mutex conn_mutex_;
  std::uint64_t next_session_ = 1;
  std::map<std::uint64_t, int> conn_fds_;           ///< open connections
  std::vector<std::thread> conn_threads_;           ///< joined in wait()
  bool accepting_ = true;                           ///< guarded by conn_mutex_
};

}  // namespace sdpm::service
