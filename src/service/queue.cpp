#include "service/queue.h"

#include "util/error.h"
#include "util/strings.h"

namespace sdpm::service {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

AdmissionQueue::AdmissionQueue(std::size_t capacity, Journal* journal)
    : capacity_(capacity), journal_(journal) {
  SDPM_REQUIRE(capacity_ > 0, "admission queue capacity must be positive");
}

std::int64_t AdmissionQueue::submit(std::uint64_t session, api::JobSpec spec,
                                    std::string& error, bool& retryable,
                                    double now_ms, std::uint64_t trace_id,
                                    std::uint64_t span_id) {
  // The ADMIT document and its key are built before the lock is taken.
  std::string spec_json;
  ContentKey key;
  if (journal_ != nullptr) {
    spec_json = spec.canonical_json();
    key = fingerprint_bytes(spec_json);
  }
  std::lock_guard lock(mutex_);
  if (draining_ || stopped_) {
    error = "daemon is draining; admission is closed";
    retryable = false;
    ++rejected_;
    return 0;
  }
  if (queued_ >= capacity_) {
    error = str_printf("admission queue full (%zu jobs); retry later",
                       capacity_);
    retryable = true;
    ++rejected_;
    return 0;
  }
  if (journal_ != nullptr) journal_->admit(next_id_, session, spec_json);
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->key = key;
  job->session = session;
  job->spec = std::move(spec);
  job->label = job->spec.display_label();
  job->admit_ms = now_ms;
  job->trace_id = trace_id;
  job->span_id = span_id;
  jobs_.emplace(job->id, job);
  pending_[session].push_back(job);
  ++queued_;
  ++submitted_;
  work_cv_.notify_all();
  return job->id;
}

std::vector<std::shared_ptr<Job>> AdmissionQueue::pop_batch(
    std::size_t max, const std::function<double()>& clock) {
  std::unique_lock lock(mutex_);
  work_cv_.wait(lock, [this] {
    if (stopped_) return true;
    if (paused_) return false;
    if (queued_ > 0) return true;
    return draining_;  // nothing queued while draining: dispatcher exits
  });
  std::vector<std::shared_ptr<Job>> batch;
  if (stopped_ || queued_ == 0) return batch;

  // Round-robin: walk sessions in id order starting strictly after the
  // session the previous rotation ended at, taking one job per session per
  // rotation until `max` jobs are in hand or the queue is empty.
  const std::uint64_t rr_start = rr_cursor_;
  while (batch.size() < max && batch.size() < queued_) {
    auto it = pending_.upper_bound(rr_cursor_);
    if (it == pending_.end()) it = pending_.begin();
    rr_cursor_ = it->first;
    std::deque<std::shared_ptr<Job>>& line = it->second;
    batch.push_back(line.front());
    line.pop_front();
    if (line.empty()) pending_.erase(it);
  }
  if (journal_ != nullptr) {
    try {
      for (const auto& job : batch) journal_->dispatch(job->id);
    } catch (...) {
      // Put the batch back as it was.  The DISPATCH records already
      // written over-count these jobs' attempts by one, as a crash between
      // journaling and evaluation would.
      for (auto job = batch.rbegin(); job != batch.rend(); ++job) {
        pending_[(*job)->session].push_front(*job);
      }
      rr_cursor_ = rr_start;
      throw;
    }
  }
  const double now_ms = clock ? clock() : -1;
  for (const auto& job : batch) {
    job->state = JobState::kRunning;
    job->dispatch_seq = next_dispatch_seq_++;
    job->started_ms = now_ms;
    ++job->runs;
    running_.emplace(job->id, job);
  }
  queued_ -= batch.size();
  return batch;
}

void AdmissionQueue::finish_locked(Job& job, JobOutcome outcome,
                                   double wall_ms) {
  const bool done = outcome.result.has_value();
  if (journal_ != nullptr) {
    if (done) {
      journal_->complete_done(job.id, to_hex(job.key));
    } else {
      journal_->complete_failed(job.id, outcome.error_code, outcome.error);
    }
  }
  job.state = done ? JobState::kDone : JobState::kFailed;
  job.result = std::move(outcome.result);
  job.error = std::move(outcome.error);
  job.error_code = std::move(outcome.error_code);
  job.wall_ms = wall_ms;
  running_.erase(job.id);
  ++(done ? completed_ : failed_);
  evict_locked();
}

void AdmissionQueue::evict_locked() {
  if (jobs_.size() - queued_ - running_.size() <= kTerminalJobsKept) return;
  // Ids ascend: the first terminal entry is the oldest.  Only queued and
  // running jobs, bounded by the capacity and the batches, come before it.
  auto it = jobs_.begin();
  while (!is_terminal(it->second->state)) ++it;
  jobs_.erase(it);
}

bool AdmissionQueue::finish(const std::shared_ptr<Job>& job,
                            JobOutcome outcome, double wall_ms) {
  std::lock_guard lock(mutex_);
  SDPM_REQUIRE(job->state != JobState::kQueued,
               "finish() on a job that was never dispatched");
  if (is_terminal(job->state)) return false;
  finish_locked(*job, std::move(outcome), wall_ms);
  done_cv_.notify_all();
  work_cv_.notify_all();  // drained_locked() may have become true
  return true;
}

std::vector<std::shared_ptr<Job>> AdmissionQueue::expire_overdue(
    double now_ms, double timeout_ms) {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<Job>> expired;
  for (auto it = running_.begin(); it != running_.end();) {
    // Held by value: finish_locked erases the job's entry.
    const std::shared_ptr<Job> job = (it++)->second;
    if (job->started_ms < 0) continue;  // dispatcher opted out of deadlines
    const double elapsed = now_ms - job->started_ms;
    if (elapsed <= timeout_ms) continue;
    finish_locked(*job,
                  JobOutcome::failed(
                      api::to_string(api::ErrorCode::kJobTimeout),
                      str_printf("job exceeded its %.0f ms deadline (ran "
                                 "%.0f ms)",
                                 timeout_ms, elapsed)),
                  elapsed);
    ++timed_out_;
    expired.push_back(job);
  }
  if (!expired.empty()) {
    done_cv_.notify_all();
    work_cv_.notify_all();
  }
  return expired;
}

JobState AdmissionQueue::restore(const ReplayedJob& replayed,
                                 api::JobSpec spec,
                                 std::optional<api::JobResult> result,
                                 std::int64_t max_attempts) {
  std::lock_guard lock(mutex_);
  SDPM_REQUIRE(replayed.id > 0, "restored job ids must be positive");
  SDPM_REQUIRE(jobs_.find(replayed.id) == jobs_.end(),
               "restore of a job id that already exists");
  auto job = std::make_shared<Job>();
  job->id = replayed.id;
  job->session = replayed.session;
  job->spec = std::move(spec);
  job->label = job->spec.display_label();
  if (journal_ != nullptr) job->key = fingerprint_bytes(replayed.spec_json);
  job->runs = replayed.dispatches;
  using Outcome = ReplayedJob::Outcome;
  if (replayed.outcome == Outcome::kCancelled) {
    job->state = JobState::kCancelled;
    ++cancelled_;
  } else if (replayed.outcome == Outcome::kFailed) {
    job->state = JobState::kFailed;
    job->error = replayed.error;
    job->error_code = replayed.error_code;
    ++failed_;
  } else if (replayed.outcome == Outcome::kDone && result.has_value()) {
    job->state = JobState::kDone;
    job->result = std::move(result);
    ++completed_;
  } else if (replayed.dispatches >= max_attempts) {
    // It keeps taking the daemon down: a structured failure instead of a
    // crash loop.
    job->error = str_printf(
        "job quarantined after %lld dispatch attempts without completion",
        static_cast<long long>(replayed.dispatches));
    job->error_code = api::to_string(api::ErrorCode::kQuarantined);
    if (journal_ != nullptr) {
      journal_->complete_failed(job->id, job->error_code, job->error);
    }
    job->state = JobState::kFailed;
    ++failed_;
  } else {
    pending_[job->session].push_back(job);
    ++queued_;
    ++recovered_;
    work_cv_.notify_all();
  }
  jobs_.emplace(job->id, job);
  evict_locked();
  if (next_id_ <= job->id) next_id_ = job->id + 1;
  ++submitted_;
  return job->state;
}

bool AdmissionQueue::cancel(std::int64_t id, std::string& error) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    error = str_printf("no such job %lld", static_cast<long long>(id));
    return false;
  }
  Job& job = *it->second;
  if (job.state != JobState::kQueued) {
    error = str_printf("job %lld is %s; only queued jobs can be cancelled",
                       static_cast<long long>(id), to_string(job.state));
    return false;
  }
  if (journal_ != nullptr) journal_->cancel(id);
  auto line = pending_.find(job.session);
  if (line != pending_.end()) {
    auto& deque = line->second;
    for (auto jt = deque.begin(); jt != deque.end(); ++jt) {
      if ((*jt)->id == id) {
        deque.erase(jt);
        break;
      }
    }
    if (deque.empty()) pending_.erase(line);
  }
  job.state = JobState::kCancelled;
  --queued_;
  ++cancelled_;
  evict_locked();  // may evict this job: `job` is not read below
  done_cv_.notify_all();
  work_cv_.notify_all();
  return true;
}

JobSnapshot AdmissionQueue::snapshot_locked(const Job& job) const {
  JobSnapshot snap;
  snap.id = job.id;
  snap.session = job.session;
  snap.label = job.label;
  snap.state = job.state;
  snap.error = job.error;
  snap.error_code = job.error_code;
  snap.result = job.result;
  snap.dispatch_seq = job.dispatch_seq;
  snap.wall_ms = job.wall_ms;
  return snap;
}

std::optional<JobSnapshot> AdmissionQueue::snapshot(std::int64_t id) const {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::optional<JobSnapshot> AdmissionQueue::wait_terminal(std::int64_t id) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;  // outlives an eviction
  done_cv_.wait(lock,
                [this, &job] { return stopped_ || is_terminal(job->state); });
  return snapshot_locked(*job);
}

void AdmissionQueue::begin_drain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
  work_cv_.notify_all();
  done_cv_.notify_all();
}

bool AdmissionQueue::draining() const {
  std::lock_guard lock(mutex_);
  return draining_;
}

bool AdmissionQueue::drained_locked() const {
  return draining_ && queued_ == 0 && running_.empty();
}

void AdmissionQueue::wait_drained() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return stopped_ || drained_locked(); });
}

void AdmissionQueue::stop() {
  std::lock_guard lock(mutex_);
  stopped_ = true;
  work_cv_.notify_all();
  done_cv_.notify_all();
}

void AdmissionQueue::pause(bool paused) {
  std::lock_guard lock(mutex_);
  paused_ = paused;
  if (!paused_) work_cv_.notify_all();
}

QueueStats AdmissionQueue::stats() const {
  std::lock_guard lock(mutex_);
  QueueStats stats;
  stats.depth = queued_;
  stats.running = running_.size();
  stats.capacity = capacity_;
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.cancelled = cancelled_;
  stats.rejected = rejected_;
  stats.recovered = recovered_;
  stats.timed_out = timed_out_;
  stats.draining = draining_;
  return stats;
}

}  // namespace sdpm::service
