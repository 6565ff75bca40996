// ThreadPool: completion, wait_idle semantics, exception propagation, and
// run_parallel; OnceState, the run-once guard pool tasks share.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/once.h"
#include "util/thread_pool.h"

namespace sdpm {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorJoinsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunParallelConvenience) {
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 10; ++i) {
    tasks.push_back([&sum, i] { sum.fetch_add(i); });
  }
  run_parallel(std::move(tasks), 3);
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, TasksSubmittedFromTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.submit([&] {
    counter.fetch_add(1);
    pool.submit([&] { counter.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ThrowingTaskRethrowsFromWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The other tasks still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, PoolRemainsUsableAfterException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("first batch"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);

  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();  // no stale exception left behind
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, RunParallelPropagatesTaskException) {
  std::vector<std::function<void()>> tasks;
  std::atomic<int> completed{0};
  tasks.push_back([] { throw std::runtime_error("cell failed"); });
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(run_parallel(std::move(tasks), 2), std::runtime_error);
  EXPECT_EQ(completed.load(), 5);
}

TEST(ThreadPool, SetDefaultJobsOverridesDetection) {
  set_default_jobs(3);
  EXPECT_EQ(default_jobs(), 3u);
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), 3u);
  set_default_jobs(0);  // restore automatic detection
  EXPECT_GE(default_jobs(), 1u);
}

TEST(OnceState, RunsTheCallableOnce) {
  OnceState once;
  int runs = 0;
  once.call([&runs] { ++runs; });
  once.call([&runs] { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(OnceState, ThrowingCallableRethrowsToEveryCaller) {
  // Pool tasks race on one guard whose callable throws: it runs once, and
  // every task sees its error, none hangs.
  OnceState once;
  std::atomic<int> runs{0};
  std::atomic<int> failures{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&] {
      try {
        once.call([&runs] {
          runs.fetch_add(1);
          throw std::runtime_error("first");
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "first") failures.fetch_add(1);
      }
    });
  }
  run_parallel(std::move(tasks), 4);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(failures.load(), 8);
}

}  // namespace
}  // namespace sdpm
