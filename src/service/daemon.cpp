#include "service/daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "experiments/runner.h"
#include "experiments/trace_cache.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/protocol.h"
#include "util/error.h"
#include "util/strings.h"

namespace sdpm::service {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Json snapshot_json(const JobSnapshot& snap) {
  Json job = Json::object();
  job.set("id", snap.id)
      .set("label", snap.label)
      .set("state", std::string(to_string(snap.state)));
  if (snap.state == JobState::kFailed) {
    job.set("error", snap.error);
    if (!snap.error_code.empty()) job.set("code", snap.error_code);
  }
  if (is_terminal(snap.state)) job.set("wall_ms", snap.wall_ms);
  if (snap.result.has_value()) job.set("result", snap.result->to_json());
  return job;
}

std::int64_t require_id(const Json& request) {
  if (!request.contains("id")) {
    throw Error("request is missing the \"id\" field");
  }
  return request.at("id").as_int();
}

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions options)
    : options_(std::move(options)),
      journal_(options_.state_dir.empty()
                   ? nullptr
                   : std::make_unique<Journal>(JournalOptions{
                         .path = options_.state_dir + "/journal.bin",
                         .fsync_each = options_.fsync_journal,
                         .telemetry = &telemetry_,
                     })),
      queue_(options_.queue_capacity, journal_.get()),
      session_(api::SessionOptions{.jobs = options_.jobs}),
      start_ns_(steady_ns()) {
  SDPM_REQUIRE(!options_.socket_path.empty(),
               "ServiceDaemon needs a socket path");
  SDPM_REQUIRE(options_.max_batch > 0, "max_batch must be positive");
}

ServiceDaemon::~ServiceDaemon() {
  queue_.stop();  // wakes the dispatcher and every blocked waiter
  shutdown_requested_.store(true, std::memory_order_release);
  wait();
}

double ServiceDaemon::wall_ms_now() const {
  return static_cast<double>(steady_ns() - start_ns_) / 1e6;
}

std::optional<api::JobResult> ServiceDaemon::load_result(
    const ContentKey& key) {
  const auto blob = store_->get(key);
  if (!blob.has_value()) return std::nullopt;
  try {
    return api::JobResult::from_json(Json::parse(*blob));
  } catch (const std::exception&) {
    return std::nullopt;  // CRC-valid but unparseable: recompute
  }
}

void ServiceDaemon::open_state() {
  if (journal_ == nullptr) return;
  store_ = std::make_unique<PersistentStore>(StoreOptions{
      .directory = options_.state_dir + "/store",
      .max_bytes = options_.store_max_bytes,
      .telemetry = &telemetry_,
  });
  const JournalReplay replay = journal_->open();
  auto& metrics = obs::MetricsRegistry::global();

  for (const ReplayedJob& replayed : replay.jobs) {
    api::JobSpec spec;
    try {
      spec = api::JobSpec::from_json(Json::parse(replayed.spec_json));
      spec.validate();
    } catch (const std::exception&) {
      continue;  // CRC-valid but unparseable spec: nothing to re-run
    }
    // A done job whose result still resolves in the store is restored
    // terminal; if the store entry was evicted or quarantined the job is
    // simply recomputed (results are deterministic).
    std::optional<api::JobResult> result;
    if (replayed.outcome == ReplayedJob::Outcome::kDone) {
      if (const auto key = content_key_from_hex(replayed.store_key)) {
        result = load_result(*key);
      }
    }
    const JobState state = queue_.restore(replayed, std::move(spec),
                                          std::move(result),
                                          options_.max_attempts);
    if (state == JobState::kQueued) {
      metrics.add("service.jobs_recovered");
    } else if (state == JobState::kFailed &&
               replayed.outcome != ReplayedJob::Outcome::kFailed) {
      metrics.add("service.jobs_quarantined");
    }
  }
  if (options_.log != nullptr && replay.records > 0) {
    options_.log->info(
        "service.journal_replayed",
        Json::object()
            .set("jobs", static_cast<std::int64_t>(replay.jobs.size()))
            .set("records", static_cast<std::int64_t>(replay.records))
            .set("truncated_tail", replay.truncated_tail));
  }
}

void ServiceDaemon::start() {
  open_state();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error(str_printf("socket path too long (%zu bytes, limit %zu): %s",
                           options_.socket_path.size(),
                           sizeof(addr.sun_path) - 1,
                           options_.socket_path.c_str()));
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(str_printf("socket() failed: %s", std::strerror(errno)));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a prior run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(str_printf("bind(%s) failed: %s",
                           options_.socket_path.c_str(), std::strerror(err)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(str_printf("listen(%s) failed: %s",
                           options_.socket_path.c_str(), std::strerror(err)));
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  if (options_.job_timeout_ms > 0) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
  if (!options_.telemetry_dump.empty()) {
    telemetry_thread_ = std::thread([this] { telemetry_dump_loop(); });
  }
  if (options_.log != nullptr) {
    options_.log->info(
        "service.listening",
        Json::object()
            .set("socket", options_.socket_path)
            .set("capacity",
                 static_cast<std::int64_t>(options_.queue_capacity)));
  }
}

void ServiceDaemon::close_listener() {
  std::lock_guard lock(conn_mutex_);
  accepting_ = false;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept(2)
  }
}

void ServiceDaemon::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal: either way, stop accepting)
    }
    std::uint64_t session_id = 0;
    {
      std::lock_guard lock(conn_mutex_);
      if (!accepting_) {
        ::close(fd);
        return;
      }
      session_id = next_session_++;
      conn_fds_.emplace(session_id, fd);
      conn_threads_.emplace_back(
          [this, fd, session_id] { handle_connection(fd, session_id); });
    }
    obs::MetricsRegistry::global().add("service.connections");
  }
}

void ServiceDaemon::handle_connection(int fd, std::uint64_t session_id) {
  auto& metrics = obs::MetricsRegistry::global();
  try {
    std::string payload;
    while (true) {
      const FrameRead frame =
          read_frame_limited(fd, payload, options_.max_frame_bytes);
      if (frame.status == FrameRead::Status::kEof) break;
      if (frame.status == FrameRead::Status::kTooLarge) {
        // A structured error frame instead of a dropped connection: the
        // client learns WHY.  When the oversized payload could not be
        // discarded the stream is out of alignment and must close.
        metrics.add("service.frames_rejected");
        write_message(fd, error_response(
                              str_printf("request frame of %u bytes exceeds "
                                         "the %u-byte limit",
                                         frame.length,
                                         options_.max_frame_bytes),
                              false,
                              api::to_string(api::ErrorCode::kFrameTooLarge)));
        if (!frame.resynced) break;
        continue;
      }
      metrics.add("service.requests");
      Json response;
      try {
        response = handle_request(Json::parse(payload), session_id);
      } catch (const std::exception& e) {
        response = error_response(e.what());
      }
      // A response that cannot fit one frame (a huge JobResult) must not
      // be truncated or silently dropped — substitute a structured
      // RESULT_TOO_LARGE error so the client fails loudly.
      std::string dump = response.dump();
      if (dump.size() > options_.max_frame_bytes) {
        metrics.add("service.results_too_large");
        response = error_response(
            str_printf("response of %zu bytes exceeds the %u-byte frame "
                       "limit",
                       dump.size(), options_.max_frame_bytes),
            false, api::to_string(api::ErrorCode::kResultTooLarge));
        dump = response.dump();
      }
      const double t_respond0 = wall_ms_now();
      write_frame(fd, dump);
      telemetry_.record(Stage::kRespond, wall_ms_now() - t_respond0);
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: drop the connection.  The daemon's
    // state is already consistent — per-request effects are applied
    // before the response is written.
  }
  {
    std::lock_guard lock(conn_mutex_);
    conn_fds_.erase(session_id);
  }
  ::close(fd);
}

Json ServiceDaemon::handle_request(const Json& request,
                                   std::uint64_t session_id) {
  const std::string op = request.contains("op")
                             ? request.at("op").as_string()
                             : throw Error("request is missing \"op\"");

  if (op == "ping") {
    return ok_response().set("protocol", kProtocolVersion);
  }

  if (op == "submit") {
    const double t_admit0 = wall_ms_now();
    if (!request.contains("spec")) {
      return error_response("submit is missing the \"spec\" field");
    }
    api::JobSpec spec;
    try {
      spec = api::JobSpec::from_json(request.at("spec"));
      spec.validate();
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
    // Optional client trace context; a malformed id degrades to untraced.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    if (const Json* f = request.find("trace_id")) {
      trace_id = parse_trace_hex(f->as_string());
    }
    if (const Json* f = request.find("span_id")) {
      span_id = parse_trace_hex(f->as_string());
    }
    std::string error;
    bool retryable = false;
    const double now = wall_ms_now();
    const std::int64_t id = queue_.submit(session_id, std::move(spec), error,
                                          retryable, now, trace_id, span_id);
    if (id == 0) {
      obs::MetricsRegistry::global().add("service.jobs_rejected");
      return error_response(error, retryable);
    }
    obs::MetricsRegistry::global().add("service.jobs_submitted");
    telemetry_.record_admit(session_id, now);
    telemetry_.record(Stage::kAdmit, wall_ms_now() - t_admit0);
    return ok_response().set("id", id);
  }

  if (op == "status") {
    const auto snap = queue_.snapshot(require_id(request));
    if (!snap) return error_response("no such job");
    return ok_response().set("job", snapshot_json(*snap));
  }

  if (op == "result") {
    const std::int64_t id = require_id(request);
    const bool wait =
        request.contains("wait") && request.at("wait").as_bool();
    const auto snap = wait ? queue_.wait_terminal(id) : queue_.snapshot(id);
    if (!snap) return error_response("no such job");
    return ok_response().set("job", snapshot_json(*snap));
  }

  if (op == "cancel") {
    const std::int64_t id = require_id(request);
    std::string error;
    if (!queue_.cancel(id, error)) {
      return error_response(error);
    }
    obs::MetricsRegistry::global().add("service.jobs_cancelled");
    return ok_response();
  }

  if (op == "stats") {
    const QueueStats stats = queue_.stats();
    Json queue = Json::object();
    queue.set("depth", static_cast<std::int64_t>(stats.depth))
        .set("running", static_cast<std::int64_t>(stats.running))
        .set("capacity", static_cast<std::int64_t>(stats.capacity))
        .set("submitted", stats.submitted)
        .set("completed", stats.completed)
        .set("failed", stats.failed)
        .set("cancelled", stats.cancelled)
        .set("rejected", stats.rejected)
        .set("recovered", stats.recovered)
        .set("timed_out", stats.timed_out)
        .set("draining", stats.draining);
    Json counters = Json::object();
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      counters.set(name, value);
    }
    Json cache = Json::object();
    auto& trace_cache = experiments::TraceCache::global();
    cache.set("size", static_cast<std::int64_t>(trace_cache.size()));
    Json response = ok_response()
                        .set("protocol", kProtocolVersion)
                        .set("queue", queue)
                        .set("counters", counters)
                        .set("trace_cache", cache);
    if (store_ != nullptr) {
      const StoreStats store_stats = store_->stats();
      Json store = Json::object();
      store.set("entries", static_cast<std::int64_t>(store_stats.entries))
          .set("bytes", store_stats.bytes)
          .set("hits", store_stats.hits)
          .set("misses", store_stats.misses)
          .set("evictions", store_stats.evictions)
          .set("corrupt_evictions", store_stats.corrupt_evictions);
      response.set("store", store);
    }
    if (journal_ != nullptr) {
      const JournalStats journal_stats = journal_->stats();
      Json journal = Json::object();
      journal.set("appends", journal_stats.appends)
          .set("fsyncs", journal_stats.fsyncs)
          .set("compactions", journal_stats.compactions)
          .set("torn_tail_truncations", journal_stats.torn_tail_truncations);
      response.set("journal", journal);
    }
    return response;
  }

  if (op == "telemetry") {
    Json response = ok_response()
                        .set("protocol", kProtocolVersion)
                        .set("telemetry", telemetry_.to_json(wall_ms_now()));
    const Json* prometheus = request.find("prometheus");
    if (prometheus != nullptr && prometheus->as_bool()) {
      response.set("text", telemetry_.prometheus_text());
    }
    return response;
  }

  if (op == "drain") {
    request_drain();
    return ok_response().set("draining", true);
  }

  if (op == "shutdown") {
    request_shutdown();
    return ok_response().set("shutting_down", true);
  }

  return error_response(str_printf("unknown op \"%s\"", op.c_str()));
}

void ServiceDaemon::dispatch_loop() {
  while (true) {
    // pop_batch journals each job's DISPATCH before the work runs: a job
    // that takes the daemon down mid-evaluation accumulates dispatch
    // records, which is the signal the poison-job quarantine counts.
    const auto batch =
        queue_.pop_batch(options_.max_batch, [this] { return wall_ms_now(); });
    if (batch.empty()) return;  // stopped, or draining with nothing left
    const double pop_ms = wall_ms_now();
    for (const auto& job : batch) {
      // Journal-recovered jobs carry admit_ms == -1: their queue wait
      // spans a daemon restart and would poison the histogram.
      if (job->admit_ms >= 0) {
        telemetry_.record(Stage::kQueueWait, job->started_ms - job->admit_ms);
        emit_stage(*job, "queued", job->admit_ms, job->started_ms);
      }
    }
    run_batch_jobs(batch, pop_ms);
  }
}

void ServiceDaemon::watchdog_loop() {
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto expired =
        queue_.expire_overdue(wall_ms_now(), options_.job_timeout_ms);
    for (const auto& job : expired) {
      record_terminal(*job, /*done=*/false, job->wall_ms);
      obs::MetricsRegistry::global().add("service.jobs_timed_out");
      if (options_.log != nullptr) {
        options_.log->warn("service.job_timeout",
                           Json::object()
                               .set("id", job->id)
                               .set("wall_ms", job->wall_ms));
      }
    }
  }
}

void ServiceDaemon::finish_job(const std::shared_ptr<Job>& job,
                               JobOutcome outcome, double wall_ms) {
  const bool done = outcome.result.has_value();
  // A job the watchdog timed out first drops its late outcome.
  if (queue_.finish(job, std::move(outcome), wall_ms)) {
    record_terminal(*job, done, wall_ms);
  }
}

void ServiceDaemon::record_terminal(const Job& job, bool done,
                                    double wall_ms) {
  auto& metrics = obs::MetricsRegistry::global();
  if (done) {
    metrics.add("service.jobs_completed");
    metrics.observe("service.job_wall_ms", wall_ms);
  } else {
    metrics.add("service.jobs_failed");
  }
  telemetry_.record(Stage::kEval, wall_ms);
  const double now = wall_ms_now();
  emit_stage(job, "eval", now - wall_ms, now);
  // Journal-recovered jobs (admit_ms == -1) have no admission timestamp on
  // this daemon's clock; their e2e latency is undefined and not recorded.
  if (job.admit_ms >= 0) {
    telemetry_.record_outcome(job.session, now - job.admit_ms, done, now);
  }
}

void ServiceDaemon::emit_stage(const Job& job, const char* stage, double t0,
                               double t1) {
  obs::EventTracer* tracer = obs::effective_tracer(options_.tracer);
  if (tracer == nullptr || job.trace_id == 0) return;
  obs::Event e;
  e.kind = obs::EventKind::kServiceStage;
  e.t0 = t0;
  e.t1 = t1;
  e.label = stage;
  e.value = static_cast<double>(job.id);
  // One Chrome-trace lane per client connection keeps concurrent clients'
  // lifecycles visually separate without unbounded tids.
  e.level = static_cast<int>(job.session % 64);
  e.trace_id = job.trace_id;
  tracer->emit(e);
}

JobOutcome ServiceDaemon::save_result(const Job& job,
                                      api::JobResult result) {
  // The store is written before the queue journals COMPLETE, so the
  // record's key always resolves after a crash between the two.
  if (store_ != nullptr) {
    try {
      store_->put(job.key, result.to_json().dump());
    } catch (const std::exception& e) {
      return JobOutcome::failed(api::to_string(api::ErrorCode::kExecError),
                                e.what());
    }
  }
  return JobOutcome::done(std::move(result));
}

void ServiceDaemon::run_batch_jobs(
    const std::vector<std::shared_ptr<Job>>& batch, double pop_ms) {
  obs::MetricsRegistry::global().observe("service.batch_size",
                                         static_cast<double>(batch.size()));
  obs::EventTracer* tracer = obs::effective_tracer(options_.tracer);

  const double t0 = wall_ms_now();
  // pop -> evaluation start, charged once per job in the batch.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    telemetry_.record(Stage::kDispatch, t0 - pop_ms);
  }
  std::vector<std::unique_ptr<obs::Span>> spans;
  if (tracer != nullptr) {
    spans.reserve(batch.size());
    for (const auto& job : batch) {
      spans.push_back(
          std::make_unique<obs::Span>(tracer, job->label.c_str(), t0));
    }
  }

  // Persistent-store fast path: a job whose result survives from a prior
  // daemon life (or an identical earlier job) completes without touching
  // the simulator.  The misses go to the Session.
  struct Dispatch {
    std::vector<std::shared_ptr<Job>> jobs;
    api::RunHooks hooks;
  };
  std::vector<Dispatch> dispatches;
  Dispatch shared;
  for (const auto& job : batch) {
    std::optional<api::JobResult> cached;
    if (store_ != nullptr) cached = load_result(job->key);
    if (cached.has_value()) {
      finish_job(job, JobOutcome::done(std::move(*cached)),
                 wall_ms_now() - t0);
      continue;
    }
    // A traced job (client-supplied trace_id, tracer attached) that names
    // one replayable scheme dispatches alone with the replay tracer hooked
    // up, so its simulated-time disk tracks land in the same event stream
    // as its wall-time service lane and no other job's replay interleaves.
    // Everything else shares one dispatch.
    std::optional<experiments::Scheme> scheme;
    if (tracer != nullptr && job->trace_id != 0 &&
        job->spec.schemes.size() == 1) {
      scheme = api::scheme_from_name(job->spec.schemes.front());
    }
    if (scheme.has_value() && *scheme != experiments::Scheme::kItpm &&
        *scheme != experiments::Scheme::kIdrpm) {
      dispatches.push_back({{job}, {.replay_tracer = tracer,
                                    .trace_scheme = scheme}});
    } else {
      shared.jobs.push_back(job);
    }
  }
  if (!shared.jobs.empty()) dispatches.push_back(std::move(shared));

  // Each job's slot maps straight to its outcome.
  for (const Dispatch& dispatch : dispatches) {
    const double d0 = wall_ms_now();
    std::vector<api::JobSpec> specs;
    for (const auto& job : dispatch.jobs) specs.push_back(job->spec);
    std::vector<api::JobSlot> slots = session_.run_batch(specs, dispatch.hooks);
    const double wall = wall_ms_now() - d0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::shared_ptr<Job>& job = dispatch.jobs[i];
      if (slots[i].error) {
        finish_job(job,
                   JobOutcome::failed(
                       api::to_string(api::ErrorCode::kExecError),
                       slots[i].error_message()),
                   wall);
        continue;
      }
      api::JobResult& result = *slots[i].result;
      if (dispatch.hooks.replay_tracer != nullptr) {
        // Stitch marker: a simulated-clock span carrying the client's
        // trace id over the traced scheme's execution window is what links
        // the wall-time service lane (same trace_id) to the disk tracks.
        obs::Event begin;
        begin.kind = obs::EventKind::kSpanBegin;
        begin.t0 = 0;
        begin.t1 = 0;
        begin.label = job->label.c_str();
        begin.trace_id = job->trace_id;
        tracer->emit(begin);
        obs::Event end = begin;
        end.kind = obs::EventKind::kSpanEnd;
        end.t0 = result.schemes.front().execution_ms;
        end.t1 = end.t0;
        tracer->emit(end);
      }
      finish_job(job, save_result(*job, std::move(result)), wall);
    }
  }

  const double t1 = wall_ms_now();
  for (auto& span : spans) span->end(t1);
}

void ServiceDaemon::request_drain() {
  if (options_.log != nullptr && !queue_.draining()) {
    options_.log->info("service.draining", Json::object());
  }
  queue_.begin_drain();
}

void ServiceDaemon::request_shutdown() {
  if (options_.log != nullptr &&
      !shutdown_requested_.load(std::memory_order_acquire)) {
    options_.log->info("service.shutdown_requested", Json::object());
  }
  queue_.begin_drain();
  shutdown_requested_.store(true, std::memory_order_release);
  // wait() polls shutdown_requested_; no other thread blocks on it.
}

void ServiceDaemon::telemetry_dump_loop() {
  const double interval_ms = options_.telemetry_interval_ms < 10
                                 ? 10
                                 : options_.telemetry_interval_ms;
  double next_ms = wall_ms_now() + interval_ms;
  while (!telemetry_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (wall_ms_now() < next_ms) continue;
    dump_telemetry();
    next_ms = wall_ms_now() + interval_ms;
  }
}

void ServiceDaemon::dump_telemetry() {
  if (options_.telemetry_dump.empty()) return;
  const std::string temp = options_.telemetry_dump + ".tmp";
  {
    std::ofstream os(temp, std::ios::trunc);
    if (!os) return;  // unwritable dump path must not take the daemon down
    os << telemetry_.to_json(wall_ms_now()).dump() << "\n";
  }
  // Atomic swap: a scraper reading the dump never sees a torn file.
  std::rename(temp.c_str(), options_.telemetry_dump.c_str());
}

void ServiceDaemon::wait() {
  if (done_.load(std::memory_order_acquire)) return;
  // Phase 1: wait for a shutdown request, then for the queue to drain
  // (instant when the queue was stop()ed — drained-or-stopped is the
  // wait_drained predicate).
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  queue_.wait_drained();

  // Phase 2: tear down I/O.  Closing the listener unblocks accept();
  // shutting the read side of each connection unblocks its handler's
  // read without tearing a response write that is still in flight.
  close_listener();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_.stop();  // release any handler still blocked in wait_terminal
  {
    std::lock_guard lock(conn_mutex_);
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> handlers;
  {
    std::lock_guard lock(conn_mutex_);
    handlers.swap(conn_threads_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  telemetry_stop_.store(true, std::memory_order_release);
  if (telemetry_thread_.joinable()) telemetry_thread_.join();
  dump_telemetry();  // final snapshot; no-op without --telemetry-dump
  if (journal_ != nullptr) journal_->close();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (options_.log != nullptr) {
    options_.log->info("service.stopped", Json::object());
  }
  done_.store(true, std::memory_order_release);
}

}  // namespace sdpm::service
