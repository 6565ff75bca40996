// Bounded admission queue with per-client fairness and a job table.
//
// The daemon admits jobs into this queue and a single dispatcher pops them
// in batches.  Three properties the service tests pin down:
//
//   BACKPRESSURE   the queue holds at most `capacity` queued jobs; a
//                  submit against a full queue is rejected with a
//                  retryable error and the job is never recorded — the
//                  client owns the retry, the daemon's memory stays
//                  bounded.
//   FAIRNESS       queued jobs are popped round-robin across client
//                  sessions: each rotation takes at most one job from
//                  each session with pending work, so a client that dumps
//                  100 jobs cannot starve one that submits a single job.
//                  Within a session, jobs run in submission order.
//   LIFECYCLE      every admitted job is exactly-once: it moves through
//                  queued -> running -> done|failed, or queued ->
//                  cancelled, and is handed to the dispatcher at most
//                  once.  Queued and running jobs, and the newest
//                  kTerminalJobsKept terminal jobs by id, stay queryable;
//                  an older terminal job is evicted and its id answers
//                  as unknown, as it does after a restart (the journal's
//                  compaction keeps the same window).
//
// Draining (the SIGTERM path) closes admission — further submits are
// rejected as non-retryable "draining" — while everything already
// admitted still runs to a terminal state; wait_drained() returns only
// when no queued or running job remains, which is what makes the drain
// lossless.
//
// JOURNAL: with a Journal attached, the queue is its only writer of
// transition records.  submit, pop_batch, cancel, finish, expire_overdue
// and restore append ADMIT, DISPATCH, CANCEL and COMPLETE inside the
// critical section that makes the transition visible, before the state
// changes: a job's records land in the order of its transitions, and an
// append that throws leaves the transition undone and reaches the caller.
// The journal's own lock nests inside the queue's.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/job_result.h"
#include "api/job_spec.h"
#include "service/journal.h"
#include "util/fingerprint.h"

namespace sdpm::service {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* to_string(JobState state);
bool is_terminal(JobState state);

/// One admitted job.  Mutable fields are guarded by the queue's mutex;
/// snapshots for rendering are taken via AdmissionQueue::snapshot().
struct Job {
  std::int64_t id = 0;
  std::uint64_t session = 0;
  api::JobSpec spec;
  std::string label;  ///< stable copy of spec.display_label()
  JobState state = JobState::kQueued;
  std::string error;                    ///< kFailed only
  std::string error_code;  ///< kFailed only; api::ErrorCode wire string
  std::optional<api::JobResult> result; ///< kDone only
  std::int64_t dispatch_seq = -1;  ///< order handed to the dispatcher
  /// Times dispatched, INCLUDING dispatches in previous daemon lives
  /// recovered from the journal; at most 1 within a single life.
  /// restore() quarantines jobs whose count reaches the attempt budget.
  std::int64_t runs = 0;
  double started_ms = -1;  ///< wall ms when popped; -1 = no deadline
  double wall_ms = 0;
  /// Wall ms when admitted; -1 for jobs recovered from the journal (their
  /// admission happened in a prior daemon life, so queue-wait/e2e stages
  /// are not recorded for them).
  double admit_ms = -1;
  /// Client-propagated trace correlation (0 = untraced).  Set at submit,
  /// immutable afterwards.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// fingerprint_bytes of the spec's canonical JSON, the document ADMIT
  /// carries: the result store's key and the COMPLETE record's payload.
  /// Set at admission or restore when the queue journals.
  ContentKey key;
};

/// How a dispatched job ended: done with a result, or failed with an
/// error and its api::ErrorCode wire string.
struct JobOutcome {
  std::optional<api::JobResult> result;
  std::string error;
  std::string error_code;

  static JobOutcome done(api::JobResult result) {
    JobOutcome outcome;
    outcome.result = std::move(result);
    return outcome;
  }
  static JobOutcome failed(std::string error_code, std::string error) {
    JobOutcome outcome;
    outcome.error = std::move(error);
    outcome.error_code = std::move(error_code);
    return outcome;
  }
};

/// Copyable view of one job for responses (no locking hazards).
struct JobSnapshot {
  std::int64_t id = 0;
  std::uint64_t session = 0;
  std::string label;
  JobState state = JobState::kQueued;
  std::string error;
  std::string error_code;
  std::optional<api::JobResult> result;
  std::int64_t dispatch_seq = -1;
  double wall_ms = 0;
};

struct QueueStats {
  std::size_t depth = 0;     ///< currently queued
  std::size_t running = 0;   ///< popped, not yet terminal
  std::size_t capacity = 0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;   ///< backpressure + draining rejections
  std::int64_t recovered = 0;  ///< re-queued from the journal at startup
  std::int64_t timed_out = 0;  ///< failed by the deadline watchdog
  bool draining = false;
};

class AdmissionQueue {
 public:
  /// `journal` (not owned; null = no durability) must be open before the
  /// first transition and outlive the queue's last one.
  explicit AdmissionQueue(std::size_t capacity, Journal* journal = nullptr);

  /// Admit a job for `session`, journaling ADMIT first.  Returns the job
  /// id (> 0), or 0 with `error`/`retryable` set: retryable=true is
  /// backpressure (queue full), retryable=false means admission is closed
  /// (draining).  `now_ms` (when >= 0) stamps admit_ms for the
  /// queue-wait/e2e telemetry stages; `trace_id`/`span_id` carry the
  /// client's trace context.
  std::int64_t submit(std::uint64_t session, api::JobSpec spec,
                      std::string& error, bool& retryable,
                      double now_ms = -1, std::uint64_t trace_id = 0,
                      std::uint64_t span_id = 0);

  /// Pop up to `max` jobs (state -> kRunning) in round-robin session
  /// order, journaling one DISPATCH per job first; when an append throws,
  /// every job of the batch stays queued.  Blocks until work is
  /// available; returns an empty vector when the queue is stopped, or
  /// when draining and nothing is left to pop.  `clock` (when set) is
  /// read once the batch is in hand and stamps each popped job's
  /// started_ms, so the deadline watchdog times the job's run and not the
  /// dispatcher's idle wait before it.
  std::vector<std::shared_ptr<Job>> pop_batch(
      std::size_t max, const std::function<double()>& clock = {});

  /// The one terminal transition of a dispatched job: done when `outcome`
  /// holds a result, failed otherwise.  Journals COMPLETE, then notifies
  /// result waiters.  Returns false — journaling nothing and dropping the
  /// outcome — when the job is already terminal: the watchdog may have
  /// timed a job out while a worker was still computing it, and the first
  /// terminal transition wins.
  bool finish(const std::shared_ptr<Job>& job, JobOutcome outcome,
              double wall_ms);

  /// Fail every running job whose started_ms deadline has passed
  /// (now_ms - started_ms > timeout_ms) with a JOB_TIMEOUT error, through
  /// the same terminal transition.  Walks the running jobs only.  Returns
  /// the expired jobs.
  std::vector<std::shared_ptr<Job>> expire_overdue(double now_ms,
                                                   double timeout_ms);

  /// Startup recovery: re-insert a job replayed from the journal under its
  /// original id and bump the id allocator past it.  A cancelled or failed
  /// job is restored terminal, and so is a done job whose stored `result`
  /// the caller found.  Any other job (incomplete, or done with its result
  /// lost) re-queues carrying its journaled dispatches, unless it has been
  /// dispatched `max_attempts` times without completing: that poison job
  /// is failed with QUARANTINED instead, and the verdict is journaled so
  /// later lives restore it without another attempt.  Recovery runs
  /// before the dispatcher starts.  Returns the restored state.
  JobState restore(const ReplayedJob& replayed, api::JobSpec spec,
                   std::optional<api::JobResult> result,
                   std::int64_t max_attempts);

  /// Cancel a queued job, journaling CANCEL first.  Fails (returning false
  /// with `error` set) when the job is unknown, already running, or
  /// terminal.
  bool cancel(std::int64_t id, std::string& error);

  /// Snapshot a job; empty optional for unknown ids.
  std::optional<JobSnapshot> snapshot(std::int64_t id) const;

  /// Block until `id` reaches a terminal state (or the queue stops, in
  /// which case the job is returned in whatever state it is in).  Empty
  /// optional for unknown ids.  The waiter holds the job itself, so it
  /// reads the terminal state even when the job is evicted meanwhile.
  std::optional<JobSnapshot> wait_terminal(std::int64_t id);

  /// Close admission; already-admitted jobs still run.
  void begin_drain();
  bool draining() const;

  /// Block until draining and no queued or running jobs remain.
  void wait_drained();

  /// Wake every blocked caller; pop_batch returns empty from now on.
  void stop();

  /// Test hook: while paused, pop_batch blocks even with work available
  /// (deterministic backpressure / cancellation / fairness tests).
  void pause(bool paused);

  QueueStats stats() const;

 private:
  JobSnapshot snapshot_locked(const Job& job) const;
  bool drained_locked() const;
  void finish_locked(Job& job, JobOutcome outcome, double wall_ms);
  /// Evict the oldest terminal job once more than kTerminalJobsKept are
  /// held; called after each transition to a terminal state.
  void evict_locked();

  const std::size_t capacity_;
  Journal* const journal_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< dispatcher side
  std::condition_variable done_cv_;   ///< waiters: results, drain
  /// Queued, running and the newest kTerminalJobsKept terminal jobs.
  std::map<std::int64_t, std::shared_ptr<Job>> jobs_;
  std::map<std::int64_t, std::shared_ptr<Job>> running_;
  std::map<std::uint64_t, std::deque<std::shared_ptr<Job>>> pending_;
  std::uint64_t rr_cursor_ = 0;  ///< session id the last pop ended at
  std::int64_t next_id_ = 1;
  std::int64_t next_dispatch_seq_ = 0;
  std::size_t queued_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t cancelled_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t recovered_ = 0;
  std::int64_t timed_out_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
  bool paused_ = false;
};

}  // namespace sdpm::service
