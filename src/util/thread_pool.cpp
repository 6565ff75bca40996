#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/error.h"

namespace sdpm {

namespace {

std::atomic<unsigned> g_default_jobs{0};

unsigned jobs_from_env() {
  const char* env = std::getenv("SDPM_JOBS");
  if (env == nullptr || env[0] == '\0') return 0;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<unsigned>(value) : 0;
}

}  // namespace

unsigned default_jobs() {
  const unsigned forced = g_default_jobs.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  const unsigned env = jobs_from_env();
  if (env != 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

void set_default_jobs(unsigned jobs) {
  g_default_jobs.store(jobs, std::memory_order_relaxed);
}

void run_parallel(std::vector<std::function<void()>> tasks, unsigned threads) {
  SDPM_REQUIRE(threads > 0, "run_parallel: needs at least one thread");
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < tasks.size();
         i = next.fetch_add(1)) {
      try {
        tasks[i]();
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t count = std::min<std::size_t>(threads, tasks.size());
  std::vector<std::thread> workers;
  workers.reserve(count);
  try {
    while (workers.size() < count) workers.emplace_back(work);
  } catch (...) {
    // A thread failed to start: hand out no more tasks, and join the
    // workers already running before the state they share goes away.
    next.store(tasks.size());
    for (std::thread& worker : workers) worker.join();
    throw;
  }
  for (std::thread& worker : workers) worker.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sdpm
