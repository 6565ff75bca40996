// run_parallel: completion and exception propagation; default_jobs; and
// OnceState, the run-once guard parallel tasks share.
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
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  run_parallel(std::move(tasks), 4);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  EXPECT_GE(default_jobs(), 1u);
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

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  // Every task throws; exactly one of their exceptions comes back.
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(
        [i] { throw std::runtime_error("boom " + std::to_string(i)); });
  }
  try {
    run_parallel(std::move(tasks), 2);
    ADD_FAILURE() << "run_parallel returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
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
  // Parallel tasks race on one guard whose callable throws: it runs once, and
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
