// Minimal work-queue thread pool used by the sweep engine to evaluate
// independent (benchmark, scheme, configuration) cells in parallel.
//
// The discrete-event simulator itself stays single-threaded for determinism;
// parallelism lives strictly at the granularity of independent simulations.
//
// Exception safety: a task that throws does not take down the worker or
// hang the pool.  The first exception thrown by any task is captured and
// rethrown from the next wait_idle() (and therefore from run_parallel()),
// after all in-flight tasks have drained — a failing sweep cell surfaces as
// an ordinary exception at the fan-in point instead of std::terminate.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdpm {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (defaults to default_jobs(), at
  /// least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Tasks may throw; see wait_idle().
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.  If any task threw,
  /// rethrows the first captured exception (subsequent exceptions are
  /// dropped) and clears it, so the pool remains usable.
  void wait_idle();

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_;
  unsigned in_flight_ = 0;
  bool stopping_ = false;
};

/// Run `tasks` on a transient pool and wait for completion.  Convenience
/// wrapper for fan-out/fan-in experiment sweeps.  Rethrows the first task
/// exception after the pool drains.
void run_parallel(std::vector<std::function<void()>> tasks,
                  unsigned threads = 0);

/// Worker count used when a ThreadPool (or the sweep engine) is created
/// with `threads == 0`: the last set_default_jobs() value if nonzero, else
/// the SDPM_JOBS environment variable, else std::thread::hardware_concurrency.
unsigned default_jobs();

/// Override default_jobs() process-wide (0 restores automatic detection).
/// Used by the CLI's --jobs flag.
void set_default_jobs(unsigned jobs);

}  // namespace sdpm
