// TraceCache under concurrency: many threads sharing one cache, mixed
// hit/miss/eviction traffic, and clear() racing lookups, plus
// the process-wide access memo under the scheduler, the DAP analysis and
// trace generation.  Primarily a TSan target (the CI tsan job runs it), but
// the assertions also pin the sharing contract: equal keys -> the exact
// same trace, and every memoized result equals its serial counterpart.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/schedule.h"
#include "experiments/runner.h"
#include "experiments/trace_cache.h"
#include "layout/layout_table.h"
#include "trace/dap.h"
#include "trace/generator.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {
namespace {

struct Triple {
  ir::Program program;
  layout::LayoutTable layout;
  trace::GeneratorOptions options;
};

/// Distinct noise seeds produce distinct fingerprints over one program.
std::vector<Triple> make_triples(int count) {
  const workloads::Benchmark bench = workloads::make_benchmark("galgel");
  const ExperimentConfig config;
  std::vector<Triple> triples;
  for (int i = 0; i < count; ++i) {
    trace::GeneratorOptions options = config.gen;
    options.noise = trace::CycleNoise{0.20, 0x5eed + static_cast<std::uint64_t>(i)};
    triples.push_back(Triple{
        bench.program,
        layout::LayoutTable(bench.program, config.striping,
                            config.total_disks),
        options});
  }
  return triples;
}

TEST(TraceCacheConcurrency, EqualKeysShareOneTraceAcrossThreads) {
  TraceCache cache(8);
  const std::vector<Triple> triples = make_triples(3);

  constexpr int kThreads = 8;
  constexpr int kIters = 12;
  std::vector<std::shared_ptr<const trace::Trace>> seen(
      static_cast<std::size_t>(kThreads) * kIters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Triple& triple =
            triples[static_cast<std::size_t>((t + i) % 3)];
        auto trace = cache.get_or_generate(triple.program, triple.layout,
                                           triple.options);
        ASSERT_NE(trace, nullptr);
        seen[static_cast<std::size_t>(t) * kIters +
             static_cast<std::size_t>(i)] = trace;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Every result for the same key carries bit-identical content.  Pointer
  // identity is NOT guaranteed under concurrency (two threads racing the
  // same cold key may both generate), but the contract is that a hit
  // returns exactly what a fresh generation would produce.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIters; ++i) {
      const auto& trace =
          seen[static_cast<std::size_t>(t) * kIters +
               static_cast<std::size_t>(i)];
      // Thread 0's iteration (t + i) % 3 used the same triple.
      const auto& reference = seen[static_cast<std::size_t>((t + i) % 3)];
      EXPECT_EQ(trace->request_count(), reference->request_count());
      EXPECT_EQ(trace->bytes_transferred, reference->bytes_transferred);
      EXPECT_DOUBLE_EQ(trace->compute_total_ms,
                       reference->compute_total_ms);
    }
  }
  // Steady state: one entry per key survives.
  EXPECT_EQ(cache.size(), 3u);

  // Sequential lookups after the race ARE hits on the same object.
  const Triple& triple = triples[0];
  const auto a =
      cache.get_or_generate(triple.program, triple.layout, triple.options);
  const auto b =
      cache.get_or_generate(triple.program, triple.layout, triple.options);
  EXPECT_EQ(a.get(), b.get());
}

TEST(TraceCacheConcurrency, EvictionRacesKeepResultsValid) {
  // Capacity below the working set: every thread keeps evicting the
  // others' entries while holding shared_ptrs to its own traces.
  TraceCache cache(2);
  const std::vector<Triple> triples = make_triples(5);

  constexpr int kThreads = 6;
  std::atomic<int> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const Triple& triple =
            triples[static_cast<std::size_t>((t * 7 + i) % 5)];
        auto trace = cache.get_or_generate(triple.program, triple.layout,
                                           triple.options);
        ASSERT_NE(trace, nullptr);
        // The evicted-but-held trace stays fully readable.
        ASSERT_FALSE(trace->requests.empty());
        lookups.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(lookups.load(), kThreads * 10);
  EXPECT_LE(cache.size(), 2u);
}

TEST(TraceCacheConcurrency, ToggleAndClearRaceLookups) {
  TraceCache cache(4);
  const std::vector<Triple> triples = make_triples(2);

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    // clear from one thread while others look up and insert; every
    // interleaving must stay memory-safe (the TSan point of this test).
    for (int i = 0; i < 40; ++i) {
      cache.clear();
      std::this_thread::yield();
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load() || i < 4) {
        const Triple& triple = triples[static_cast<std::size_t>(i % 2)];
        auto trace = cache.get_or_generate(triple.program, triple.layout,
                                           triple.options);
        ASSERT_NE(trace, nullptr);
        ++i;
        if (i > 200) break;  // bound the loop however the race unfolds
      }
    });
  }
  toggler.join();
  for (std::thread& th : readers) th.join();
}

bool same_schedule(const core::ScheduleResult& a,
                   const core::ScheduleResult& b) {
  if (a.calls_inserted != b.calls_inserted ||
      a.plans.size() != b.plans.size() ||
      a.program.directives.size() != b.program.directives.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.plans.size(); ++i) {
    const core::GapPlan& x = a.plans[i];
    const core::GapPlan& y = b.plans[i];
    if (x.disk != y.disk || x.begin_iter != y.begin_iter ||
        x.end_iter != y.end_iter || x.estimated_ms != y.estimated_ms ||
        x.level != y.level || x.acted != y.acted) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.program.directives.size(); ++i) {
    const ir::PlacedDirective& x = a.program.directives[i];
    const ir::PlacedDirective& y = b.program.directives[i];
    if (x.point.nest_index != y.point.nest_index ||
        x.point.flat_iteration != y.point.flat_iteration ||
        x.directive.kind != y.directive.kind ||
        x.directive.disk != y.directive.disk ||
        x.directive.rpm_level != y.directive.rpm_level) {
      return false;
    }
  }
  return true;
}

bool same_dap(const trace::DiskAccessPattern& a,
              const trace::DiskAccessPattern& b) {
  if (a.disk_count() != b.disk_count()) return false;
  for (int d = 0; d < a.disk_count(); ++d) {
    if (!(a.active_iterations(d) == b.active_iterations(d))) return false;
  }
  return true;
}

bool same_trace(const trace::Trace& a, const trace::Trace& b) {
  if (a.requests.size() != b.requests.size() ||
      a.power_events.size() != b.power_events.size() ||
      a.compute_total_ms != b.compute_total_ms ||
      a.bytes_transferred != b.bytes_transferred) {
    return false;
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const trace::Request& x = a.requests[i];
    const trace::Request& y = b.requests[i];
    if (x.arrival_ms != y.arrival_ms || x.disk != y.disk ||
        x.start_sector != y.start_sector || x.size_bytes != y.size_bytes ||
        x.global_iter != y.global_iter) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.power_events.size(); ++i) {
    if (a.power_events[i].app_time_ms != b.power_events[i].app_time_ms) {
      return false;
    }
  }
  return true;
}

TEST(TraceCacheConcurrency, AccessMemoRacesKeepEveryResultExact) {
  const workloads::Benchmark bench = workloads::make_benchmark("galgel");
  const ExperimentConfig config;
  const layout::LayoutTable table(bench.program, config.striping,
                                  config.total_disks);
  TraceCache& cache = TraceCache::global();

  // Serial references, every one from a fresh walk: each starts after a
  // clear().
  const auto schedule = [&](core::PowerMode mode) {
    core::SchedulerOptions so;
    so.mode = mode;
    so.access = config.gen;
    return core::schedule_power_calls(bench.program, table, config.disk, so);
  };
  cache.clear();
  const core::ScheduleResult ref_tpm = schedule(core::PowerMode::kTpm);
  cache.clear();
  const core::ScheduleResult ref_drpm = schedule(core::PowerMode::kDrpm);
  ASSERT_GT(ref_drpm.calls_inserted, 0);
  cache.clear();
  const trace::DiskAccessPattern ref_dap =
      trace::DiskAccessPattern::analyze(bench.program, table, config.gen);
  // Two directive sets (none, CMDRPM's) x two noise seeds.
  const std::vector<const ir::Program*> programs{&bench.program,
                                                 &ref_drpm.program};
  const auto options_for = [&](std::size_t seed) {
    trace::GeneratorOptions gen = config.gen;
    gen.noise = trace::CycleNoise{0.2, 0x5eed + seed};
    return gen;
  };
  std::vector<trace::Trace> ref_traces;
  for (std::size_t k = 0; k < 4; ++k) {
    cache.clear();
    ref_traces.push_back(trace::TraceGenerator(*programs[k % 2], table,
                                               options_for(k / 2))
                             .generate());
  }

  constexpr int kWorkers = 4;
  constexpr int kIters = 6;
  std::atomic<int> workers_left{kWorkers};
  std::atomic<int> mismatches{0};
  std::thread toggler([&] {
    while (workers_left.load() > 0) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        bool same = true;
        switch ((t + i) % 4) {
          case 0:
            same = same_schedule(schedule(core::PowerMode::kTpm), ref_tpm);
            break;
          case 1:
            same = same_schedule(schedule(core::PowerMode::kDrpm), ref_drpm);
            break;
          case 2:
            same = same_dap(trace::DiskAccessPattern::analyze(
                                bench.program, table, config.gen),
                            ref_dap);
            break;
          default: {
            const std::size_t k =
                static_cast<std::size_t>(t * kIters + i) % 4;
            same = same_trace(*cache.get_or_generate(*programs[k % 2], table,
                                                     options_for(k / 2)),
                              ref_traces[k]);
          }
        }
        if (!same) mismatches.fetch_add(1);
      }
      workers_left.fetch_sub(1);
    });
  }
  for (std::thread& th : workers) th.join();
  toggler.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sdpm::experiments
