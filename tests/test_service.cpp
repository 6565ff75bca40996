// sdpm_serviced core: admission-queue semantics (backpressure, fairness,
// lifecycle, lossless drain), worker supervision (deadlines, recovery,
// quarantine), protocol hardening, and live daemon/client round trips
// over a Unix socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/job_spec.h"
#include "api/session.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/store.h"
#include "util/error.h"

namespace sdpm::service {
namespace {

api::JobSpec cheap_spec(const std::string& label) {
  api::JobSpec spec = api::JobSpecBuilder("galgel").scheme("Base").build();
  spec.label = label;
  return spec;
}

api::JobResult dummy_result(const api::JobSpec& spec) {
  api::JobResult result;
  result.label = spec.display_label();
  result.benchmark = spec.benchmark;
  result.transform = spec.transform;
  return result;
}

// ---------------------------------------------------------------------------
// BACKPRESSURE: a full queue rejects retryably and records nothing

TEST(AdmissionQueue, BackpressureRejectsRetryably) {
  AdmissionQueue queue(2);
  std::string error;
  bool retryable = false;
  EXPECT_GT(queue.submit(1, cheap_spec("a"), error, retryable), 0);
  EXPECT_GT(queue.submit(1, cheap_spec("b"), error, retryable), 0);
  EXPECT_EQ(queue.submit(1, cheap_spec("c"), error, retryable), 0);
  EXPECT_TRUE(retryable);
  EXPECT_FALSE(error.empty());

  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.rejected, 1);

  // Popping frees capacity: the retry succeeds.
  const auto batch = queue.pop_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GT(queue.submit(1, cheap_spec("c"), error, retryable), 0);
  queue.stop();
}

// ---------------------------------------------------------------------------
// FAIRNESS: round-robin across sessions, FIFO within a session

TEST(AdmissionQueue, PopsRoundRobinAcrossSessions) {
  AdmissionQueue queue(16);
  std::string error;
  bool retryable = false;
  // Session 1 dumps three jobs before session 2 submits one.
  const std::int64_t a1 = queue.submit(1, cheap_spec("a1"), error, retryable);
  const std::int64_t a2 = queue.submit(1, cheap_spec("a2"), error, retryable);
  const std::int64_t a3 = queue.submit(1, cheap_spec("a3"), error, retryable);
  const std::int64_t b1 = queue.submit(2, cheap_spec("b1"), error, retryable);

  const auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  // One job per session per rotation: b1 runs second, not last.
  EXPECT_EQ(batch[0]->id, a1);
  EXPECT_EQ(batch[1]->id, b1);
  EXPECT_EQ(batch[2]->id, a2);
  EXPECT_EQ(batch[3]->id, a3);
  for (const auto& job : batch) EXPECT_EQ(job->state, JobState::kRunning);
  queue.stop();
}

// ---------------------------------------------------------------------------
// LIFECYCLE: exactly-once dispatch, terminal states stay queryable

TEST(AdmissionQueue, LifecycleIsExactlyOnce) {
  AdmissionQueue queue(8);
  std::string error;
  bool retryable = false;
  const std::int64_t id = queue.submit(1, cheap_spec("x"), error, retryable);

  auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->runs, 1);
  EXPECT_TRUE(queue.finish(
      batch[0], JobOutcome::done(dummy_result(batch[0]->spec)), 1.5));

  const auto snap = queue.snapshot(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kDone);
  ASSERT_TRUE(snap->result.has_value());
  EXPECT_DOUBLE_EQ(snap->wall_ms, 1.5);

  // wait_terminal on an already-terminal job returns immediately.
  const auto waited = queue.wait_terminal(id);
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->state, JobState::kDone);

  EXPECT_FALSE(queue.snapshot(9999).has_value());
  queue.stop();
}

TEST(AdmissionQueue, CancelOnlyTouchesQueuedJobs) {
  AdmissionQueue queue(8);
  std::string error;
  bool retryable = false;
  const std::int64_t queued =
      queue.submit(1, cheap_spec("q"), error, retryable);
  const std::int64_t running =
      queue.submit(2, cheap_spec("r"), error, retryable);

  // Pop session 2's job only (rotation starts after session 1... pop both
  // and re-submit is simpler: pop everything, then cancel must fail).
  auto batch = queue.pop_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  const std::int64_t popped = batch[0]->id;
  const std::int64_t still_queued = popped == queued ? running : queued;

  EXPECT_TRUE(queue.cancel(still_queued, error));
  EXPECT_EQ(queue.snapshot(still_queued)->state, JobState::kCancelled);
  EXPECT_FALSE(queue.cancel(popped, error));    // running
  EXPECT_FALSE(queue.cancel(still_queued, error));  // already terminal
  EXPECT_FALSE(queue.cancel(4242, error));      // unknown
  queue.stop();
}

// ---------------------------------------------------------------------------
// DRAIN: admission closes, nothing admitted is lost or double-run

TEST(AdmissionQueue, DrainIsLossless) {
  AdmissionQueue queue(64);
  queue.pause(true);  // hold the dispatcher back deterministically

  std::string error;
  bool retryable = true;
  std::vector<std::int64_t> admitted;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t session = 1 + static_cast<std::uint64_t>(i % 3);
    const std::int64_t id = queue.submit(
        session, cheap_spec(std::string("j").append(std::to_string(i))),
        error, retryable);
    ASSERT_GT(id, 0);
    admitted.push_back(id);
  }

  // A dispatcher draining the queue concurrently with the SIGTERM path.
  std::atomic<int> dispatched{0};
  std::thread dispatcher([&] {
    while (true) {
      auto batch = queue.pop_batch(3);
      if (batch.empty()) return;
      for (const auto& job : batch) {
        EXPECT_EQ(job->runs, 1);
        dispatched.fetch_add(1);
        queue.finish(job, JobOutcome::done(dummy_result(job->spec)), 0.1);
      }
    }
  });

  queue.begin_drain();
  EXPECT_TRUE(queue.draining());
  // Post-drain submits are rejected NON-retryably: the client must not
  // spin against a closing daemon.
  EXPECT_EQ(queue.submit(1, cheap_spec("late"), error, retryable), 0);
  EXPECT_FALSE(retryable);

  queue.pause(false);
  queue.wait_drained();
  dispatcher.join();

  // Every admitted job reached a terminal state exactly once.
  EXPECT_EQ(dispatched.load(), 10);
  for (const std::int64_t id : admitted) {
    const auto snap = queue.snapshot(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kDone);
  }
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  queue.stop();
}

// ---------------------------------------------------------------------------
// Daemon + client over a real socket

std::string test_socket_path(const char* tag) {
  return "/tmp/sdpm_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServiceDaemon, EndToEndSubmitAndDrain) {
  DaemonOptions options;
  options.socket_path = test_socket_path("e2e");
  options.queue_capacity = 32;
  options.max_batch = 4;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();

  std::thread waiter([&] { daemon.wait(); });

  {
    Client client(options.socket_path);
    const Json pong = client.ping();
    EXPECT_EQ(pong.at("protocol").as_int(), 1);

    // Two identical jobs: the second must ride the shared TraceCache.
    const std::int64_t first = client.submit(cheap_spec("one"));
    const std::int64_t second = client.submit(cheap_spec("two"));
    EXPECT_GT(first, 0);
    EXPECT_NE(first, second);

    const Json done = client.result(first, /*wait=*/true);
    EXPECT_EQ(done.at("state").as_string(), "done");
    ASSERT_TRUE(done.contains("result"));
    EXPECT_EQ(done.at("result").at("benchmark").as_string(), "galgel");

    client.result(second, /*wait=*/true);
    const Json stats = client.stats();
    EXPECT_EQ(stats.at("queue").at("completed").as_int(), 2);

    // A bad spec is rejected at the protocol level, not a crash.
    Json bad = Json::object();
    bad.set("op", std::string("submit"));
    Json spec_json = Json::object();
    spec_json.set("benchmark", std::string("not-a-benchmark"));
    bad.set("spec", spec_json);
    const Json rejected = client.request(bad);
    EXPECT_FALSE(rejected.at("ok").as_bool());

    client.shutdown();
  }

  waiter.join();
  EXPECT_TRUE(daemon.done());
  // The daemon unlinked its socket on the way out.
  Client* late = nullptr;
  EXPECT_THROW(late = new Client(options.socket_path), sdpm::Error);
  delete late;
}

// FAILURE PATH: an evaluation that throws fails only its own job.  A block
// size of 64 KiB + 512 B passes JobSpec::validate() but does not divide the
// 64 KiB stripe, so trace generation throws; the error stays in the bad
// job's slot, it ends EXEC_ERROR and the good ones still complete.
TEST(ServiceDaemon, ThrowingEvaluationFailsOnlyItsJob) {
  DaemonOptions options;
  options.socket_path = test_socket_path("exec_error");
  options.max_batch = 4;
  options.jobs = 1;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    api::JobSpec bad = cheap_spec("bad-block");
    bad.block_size = kib(64) + 512;
    ASSERT_NO_THROW(bad.validate());
    const std::int64_t good_a = client.submit(cheap_spec("good-a"));
    const std::int64_t bad_id = client.submit(bad);
    const std::int64_t good_b = client.submit(cheap_spec("good-b"));

    const Json failed = client.result(bad_id, /*wait=*/true);
    EXPECT_EQ(failed.at("state").as_string(), "failed");
    EXPECT_EQ(failed.at("code").as_string(),
              api::to_string(api::ErrorCode::kExecError));
    EXPECT_NE(failed.at("error").as_string().find(
                  "block size must divide every array's stripe size"),
              std::string::npos)
        << failed.at("error").as_string();
    for (const std::int64_t id : {good_a, good_b}) {
      EXPECT_EQ(client.result(id, /*wait=*/true).at("state").as_string(),
                "done");
    }
    const Json queue = client.stats().at("queue");
    EXPECT_EQ(queue.at("failed").as_int(), 1);
    EXPECT_EQ(queue.at("completed").as_int(), 2);
    client.shutdown();
  }
  waiter.join();
}

// One dispatch evaluates a batch with a failing job: three good galgel jobs
// simulate Base plus their scheme once each (6 runs), and the bad job's
// trace generation throws before any run.  Nothing is evaluated twice.
TEST(ServiceDaemon, FailingJobCostsItsBatchNoRerun) {
  DaemonOptions options;
  options.socket_path = test_socket_path("one_dispatch");
  options.max_batch = 4;
  options.jobs = 1;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    api::JobSpec bad = cheap_spec("bad-block");
    bad.block_size = kib(64) + 512;
    ASSERT_NO_THROW(bad.validate());
    daemon.queue().pause(true);
    std::vector<std::int64_t> good;
    for (const char* scheme : {"TPM", "DRPM", "CMDRPM"}) {
      good.push_back(
          client.submit(api::JobSpecBuilder("galgel").scheme(scheme).build()));
    }
    const std::int64_t bad_id = client.submit(bad);
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    const std::int64_t before = metrics.snapshot().counter("sim.simulations");
    daemon.queue().pause(false);

    const Json failed = client.result(bad_id, /*wait=*/true);
    EXPECT_EQ(failed.at("state").as_string(), "failed");
    EXPECT_EQ(failed.at("code").as_string(),
              api::to_string(api::ErrorCode::kExecError));
    EXPECT_NE(failed.at("error").as_string().find(
                  "block size must divide every array's stripe size"),
              std::string::npos)
        << failed.at("error").as_string();
    for (const std::int64_t id : good) {
      EXPECT_EQ(client.result(id, /*wait=*/true).at("state").as_string(),
                "done");
    }
    EXPECT_EQ(metrics.snapshot().counter("sim.simulations") - before, 6);
    client.shutdown();
  }
  waiter.join();
}

// A client trace id on a job with no single replayable scheme (all seven,
// or an analytic oracle) traces the service lane only; the job completes.
TEST(ServiceDaemon, TracedJobWithoutOneReplayCompletes) {
  obs::CountingSink sink;
  obs::EventTracer tracer;
  tracer.add_sink(sink);
  DaemonOptions options;
  options.socket_path = test_socket_path("traced_multi");
  options.jobs = 2;
  options.tracer = &tracer;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    TraceContext trace;
    trace.trace_id = 0x5eedull;
    trace.span_id = 1;
    for (const api::JobSpec& spec :
         {api::JobSpecBuilder("galgel").build(),
          api::JobSpecBuilder("galgel").scheme("ITPM").build()}) {
      const std::int64_t id = client.submit(spec, 8, trace);
      const Json done = client.result(id, /*wait=*/true);
      EXPECT_EQ(done.at("state").as_string(), "done")
          << done.dump();
    }
    client.shutdown();
  }
  waiter.join();
  tracer.close();
  EXPECT_GT(sink.total(), 0);
}

TEST(ServiceDaemon, DevicePresetsAndV1NotesTravelTheWire) {
  DaemonOptions options;
  options.socket_path = test_socket_path("device");
  options.queue_capacity = 8;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });

  {
    Client client(options.socket_path);

    // A v2 spec on a non-default device preset runs end to end.
    api::JobSpec preset_spec = api::JobSpecBuilder("galgel")
                                   .scheme("TPM")
                                   .device("nvme_tiered")
                                   .build();
    const std::int64_t preset_id = client.submit(preset_spec);
    const Json preset_done = client.result(preset_id, /*wait=*/true);
    EXPECT_EQ(preset_done.at("state").as_string(), "done");
    EXPECT_FALSE(preset_done.at("result").contains("notes"));
    EXPECT_GT(preset_done.at("result")
                  .at("schemes")
                  .as_array()
                  .front()
                  .at("energy_j")
                  .as_double(),
              0.0);

    // A v1 spec still runs, and its result carries the deprecation note.
    api::JobSpec v1 = api::JobSpecBuilder("galgel").scheme("Base").build();
    v1.version = 1;
    const std::int64_t v1_id = client.submit(v1);
    const Json v1_done = client.result(v1_id, /*wait=*/true);
    EXPECT_EQ(v1_done.at("state").as_string(), "done");
    ASSERT_TRUE(v1_done.at("result").contains("notes"));
    const std::string note =
        v1_done.at("result").at("notes").as_array().front().as_string();
    EXPECT_EQ(note.rfind("deprecation:", 0), 0u);

    client.shutdown();
  }
  waiter.join();
}

TEST(ServiceDaemon, DrainRejectsNewWorkButFinishesAdmitted) {
  DaemonOptions options;
  options.socket_path = test_socket_path("drain");
  options.queue_capacity = 8;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });

  std::int64_t admitted = 0;
  {
    Client client(options.socket_path);
    admitted = client.submit(cheap_spec("before-drain"));
    client.drain();

    std::string error;
    bool retryable = true;
    EXPECT_EQ(client.try_submit(cheap_spec("after-drain"), error, retryable),
              0);
    EXPECT_FALSE(retryable);

    // The admitted job still runs to completion during the drain.
    const Json done = client.result(admitted, /*wait=*/true);
    EXPECT_EQ(done.at("state").as_string(), "done");
    client.shutdown();
  }
  waiter.join();
  EXPECT_TRUE(daemon.done());
}

// ---------------------------------------------------------------------------
// SUPERVISION: deadlines, late-result drops, restore APIs

TEST(AdmissionQueue, WatchdogExpiresOverdueAndDropsLateResults) {
  AdmissionQueue queue(8);
  std::string error;
  bool retryable = false;
  queue.submit(1, cheap_spec("slow-a"), error, retryable);
  queue.submit(2, cheap_spec("slow-b"), error, retryable);

  auto batch = queue.pop_batch(2, [] { return 100.0; });
  ASSERT_EQ(batch.size(), 2u);

  // Within the deadline nothing expires.
  EXPECT_TRUE(queue.expire_overdue(/*now_ms=*/5099.0, /*timeout_ms=*/5000.0)
                  .empty());
  // Past it, every running job fails with a structured JOB_TIMEOUT.
  const auto expired = queue.expire_overdue(5200.0, 5000.0);
  EXPECT_EQ(expired.size(), 2u);
  for (const auto& job : batch) {
    const auto snap = queue.snapshot(job->id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kFailed);
    EXPECT_EQ(snap->error_code, "JOB_TIMEOUT");
  }
  QueueStats stats = queue.stats();
  EXPECT_EQ(stats.timed_out, 2);
  EXPECT_EQ(stats.running, 0u);

  // The worker that was still computing those jobs eventually reports in;
  // its late transitions are dropped, not fatal, and the first terminal
  // state wins.
  EXPECT_FALSE(queue.finish(
      batch[0], JobOutcome::done(dummy_result(batch[0]->spec)), 9.0));
  EXPECT_FALSE(queue.finish(
      batch[1], JobOutcome::failed("EXEC_ERROR", "late failure"), 9.0));
  EXPECT_EQ(queue.snapshot(batch[0]->id)->state, JobState::kFailed);
  EXPECT_EQ(queue.snapshot(batch[1]->id)->error_code, "JOB_TIMEOUT");
  EXPECT_EQ(queue.stats().completed, 0);
  queue.stop();
}

// A job's deadline runs from its pop, not from when the dispatcher began
// waiting: a job admitted after a long idle spell is not overdue.
TEST(AdmissionQueue, StartStampIsReadAfterTheWait) {
  AdmissionQueue queue(4);
  std::atomic<double> now{0};
  std::vector<std::shared_ptr<Job>> batch;
  std::thread dispatcher([&] {
    batch = queue.pop_batch(1, [&] { return now.load(); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  now = 1000;
  std::string error;
  bool retryable = false;
  queue.submit(1, cheap_spec("late-arrival"), error, retryable);
  dispatcher.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->started_ms, 1000);
  EXPECT_TRUE(queue.expire_overdue(1100, 500).empty());
  queue.stop();
}

ReplayedJob replayed_job(std::int64_t id, std::uint64_t session,
                         ReplayedJob::Outcome outcome,
                         std::int64_t dispatches = 0) {
  ReplayedJob job;
  job.id = id;
  job.session = session;
  job.outcome = outcome;
  job.dispatches = dispatches;
  return job;
}

TEST(AdmissionQueue, RestoreRebuildsAPriorLife) {
  using Outcome = ReplayedJob::Outcome;
  AdmissionQueue queue(8);
  EXPECT_EQ(queue.restore(replayed_job(3, 1, Outcome::kDone, 1),
                          cheap_spec("was-done"),
                          dummy_result(cheap_spec("was-done")), 3),
            JobState::kDone);
  ReplayedJob failed = replayed_job(4, 1, Outcome::kFailed, 1);
  failed.error = "boom";
  failed.error_code = "EXEC_ERROR";
  EXPECT_EQ(queue.restore(failed, cheap_spec("was-failed"), std::nullopt, 3),
            JobState::kFailed);
  EXPECT_EQ(queue.restore(replayed_job(5, 1, Outcome::kCancelled),
                          cheap_spec("was-cancelled"), std::nullopt, 3),
            JobState::kCancelled);
  EXPECT_EQ(queue.restore(replayed_job(6, 2, Outcome::kIncomplete, 2),
                          cheap_spec("was-queued"), std::nullopt, 3),
            JobState::kQueued);
  // Three dispatches without a completion: the poison job is quarantined.
  EXPECT_EQ(queue.restore(replayed_job(7, 2, Outcome::kIncomplete, 3),
                          cheap_spec("poison"), std::nullopt, 3),
            JobState::kFailed);
  // A done job whose stored result is lost is recomputed.
  EXPECT_EQ(queue.restore(replayed_job(8, 1, Outcome::kDone, 1),
                          cheap_spec("lost"), std::nullopt, 3),
            JobState::kQueued);

  QueueStats stats = queue.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.recovered, 2);
  EXPECT_EQ(stats.submitted, 6);

  EXPECT_EQ(queue.snapshot(3)->state, JobState::kDone);
  EXPECT_TRUE(queue.snapshot(3)->result.has_value());
  EXPECT_EQ(queue.snapshot(4)->error_code, "EXEC_ERROR");
  EXPECT_EQ(queue.snapshot(5)->state, JobState::kCancelled);
  EXPECT_EQ(queue.snapshot(7)->error_code, "QUARANTINED");

  // The id allocator starts past every restored id.
  std::string error;
  bool retryable = false;
  EXPECT_EQ(queue.submit(1, cheap_spec("fresh"), error, retryable), 9);

  // A re-queued job carries its dispatch history into the next run.
  auto batch = queue.pop_batch(4, [] { return 0.0; });
  ASSERT_EQ(batch.size(), 3u);
  std::map<std::int64_t, std::int64_t> runs;
  for (const auto& job : batch) runs[job->id] = job->runs;
  EXPECT_EQ(runs[6], 3);  // 2 prior lives + this dispatch
  EXPECT_EQ(runs[8], 2);
  EXPECT_EQ(runs[9], 1);
  queue.stop();
}

// ---------------------------------------------------------------------------
// DURABILITY: a second daemon on the same state dir finishes what the
// first one abandoned, exactly once, and serves repeats from the store

std::string test_state_dir(const char* tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("sdpm_state_" + std::string(tag) + "_" +
                     std::to_string(::getpid()));
  std::filesystem::remove_all(path);
  return path.string();
}

TEST(ServiceDaemon, RecoversAbandonedJobsAcrossRestart) {
  const std::string state_dir = test_state_dir("recover");
  DaemonOptions options;
  options.queue_capacity = 32;
  options.jobs = 2;
  options.state_dir = state_dir;

  // Life 1: admit five jobs but never let the dispatcher at them, then
  // tear the daemon down — the in-process analogue of a crash with a
  // populated queue.  Only the journal remembers the jobs.
  std::vector<std::int64_t> ids;
  options.socket_path = test_socket_path("recover1");
  {
    ServiceDaemon daemon(options);
    daemon.start();
    daemon.queue().pause(true);
    Client client(options.socket_path);
    for (int i = 0; i < 5; ++i) {
      ids.push_back(
          client.submit(cheap_spec("recover-" + std::to_string(i))));
    }
  }

  // Life 2: same state dir, fresh socket.  Every admitted job completes
  // under its ORIGINAL id without resubmission.
  options.socket_path = test_socket_path("recover2");
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    for (const std::int64_t id : ids) {
      const Json done = client.result(id, /*wait=*/true);
      EXPECT_EQ(done.at("state").as_string(), "done");
      EXPECT_TRUE(done.contains("result"));
    }
    Json stats = client.stats();
    EXPECT_EQ(stats.at("queue").at("recovered").as_int(), 5);
    EXPECT_EQ(stats.at("queue").at("completed").as_int(), 5);

    // A repeat of an already-computed job rides the persistent store.
    const std::int64_t again = client.submit(cheap_spec("recover-0"));
    EXPECT_EQ(client.result(again, true).at("state").as_string(), "done");
    stats = client.stats();
    ASSERT_TRUE(stats.contains("store"));
    EXPECT_GT(stats.at("store").at("hits").as_int(), 0);
    EXPECT_GT(stats.at("store").at("entries").as_int(), 0);
    client.shutdown();
  }
  waiter.join();
  std::filesystem::remove_all(state_dir);
}

TEST(ServiceDaemon, ResultsSurviveRestartWithoutRecompute) {
  const std::string state_dir = test_state_dir("store");
  DaemonOptions options;
  options.jobs = 2;
  options.state_dir = state_dir;

  options.socket_path = test_socket_path("store1");
  std::int64_t id = 0;
  {
    ServiceDaemon daemon(options);
    daemon.start();
    std::thread waiter([&] { daemon.wait(); });
    Client client(options.socket_path);
    id = client.submit(cheap_spec("durable"));
    EXPECT_EQ(client.result(id, true).at("state").as_string(), "done");
    client.shutdown();
    waiter.join();
  }

  // Life 2: the COMPLETE record + store entry restore the job terminal —
  // still queryable under its id, with zero recovered (nothing re-ran).
  options.socket_path = test_socket_path("store2");
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    const Json done = client.result(id, /*wait=*/false);
    EXPECT_EQ(done.at("state").as_string(), "done");
    EXPECT_TRUE(done.contains("result"));
    const Json stats = client.stats();
    EXPECT_EQ(stats.at("queue").at("recovered").as_int(), 0);
    client.shutdown();
  }
  waiter.join();
  std::filesystem::remove_all(state_dir);
}

// A clean shutdown leaves nothing to re-run.  Store hits reach their
// terminal state within microseconds of admission, the tightest race
// between a job's ADMIT and COMPLETE records: a COMPLETE journaled ahead
// of its ADMIT is dropped by replay, and the restart re-queues a job its
// client already saw done.  1,001 jobs stay under kTerminalJobsKept
// (1,024), so neither the queue nor the journal's compaction drops any.
TEST(ServiceDaemon, CleanRestartRequeuesNothing) {
  const std::string state_dir = test_state_dir("clean_restart");
  DaemonOptions options;
  options.queue_capacity = 1024;
  options.jobs = 2;
  options.state_dir = state_dir;
  options.socket_path = test_socket_path("clean_restart1");
  constexpr int kClients = 4;
  constexpr int kHitsPerClient = 250;
  std::vector<std::int64_t> ids;
  {
    ServiceDaemon daemon(options);
    daemon.start();
    std::thread waiter([&] { daemon.wait(); });
    Client client(options.socket_path);
    const std::int64_t computed = client.submit(cheap_spec("restart"));
    EXPECT_EQ(client.result(computed, true).at("state").as_string(), "done");
    ids.push_back(computed);

    std::vector<std::vector<std::int64_t>> hits(kClients);
    std::vector<std::thread> submitters;
    for (int c = 0; c < kClients; ++c) {
      submitters.emplace_back([&, c] {
        Client submitter(options.socket_path);
        for (int i = 0; i < kHitsPerClient; ++i) {
          const std::int64_t id = submitter.submit(cheap_spec("restart"));
          submitter.result(id, /*wait=*/true);
          hits[static_cast<std::size_t>(c)].push_back(id);
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    for (const auto& line : hits) {
      ids.insert(ids.end(), line.begin(), line.end());
    }
    EXPECT_EQ(client.stats().at("store").at("hits").as_int(),
              kClients * kHitsPerClient);
    client.shutdown();
    waiter.join();
  }
  ASSERT_EQ(ids.size(), 1u + kClients * kHitsPerClient);

  options.socket_path = test_socket_path("clean_restart2");
  ServiceDaemon daemon(options);
  daemon.start();
  const QueueStats stats = daemon.queue().stats();
  EXPECT_EQ(stats.recovered, 0);
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(ids.size()));
  int not_done = 0;
  for (const std::int64_t id : ids) {
    const auto snap = daemon.queue().snapshot(id);
    if (!snap.has_value() || snap->state != JobState::kDone) ++not_done;
  }
  EXPECT_EQ(not_done, 0);
  daemon.request_shutdown();
  daemon.wait();
  std::filesystem::remove_all(state_dir);
}

/// The message a daemon op's error carries; empty when the op succeeds.
template <class Op>
std::string daemon_error(Op op) {
  try {
    op();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The job table keeps queued and running jobs plus the newest
// kTerminalJobsKept terminal jobs by id.  Six jobs past the window, the
// oldest six ids answer "no such job" to every op, and they answer the
// same after a restart: the journal's compaction keeps the same window.
TEST(ServiceDaemon, JobTableKeepsTheNewestTerminalJobs) {
  const std::string state_dir = test_state_dir("job_window");
  DaemonOptions options;
  options.jobs = 2;
  options.state_dir = state_dir;
  constexpr std::int64_t kEvicted = 6;
  const std::int64_t jobs =
      static_cast<std::int64_t>(kTerminalJobsKept) + kEvicted;

  const auto expect_window = [&](ServiceDaemon& daemon, Client& client) {
    std::int64_t held = 0;
    for (std::int64_t id = 1; id <= jobs; ++id) {
      const auto snap = daemon.queue().snapshot(id);
      EXPECT_EQ(snap.has_value(), id > kEvicted) << "job " << id;
      if (snap.has_value()) {
        EXPECT_EQ(snap->state, JobState::kDone) << "job " << id;
        ++held;
      }
    }
    EXPECT_EQ(held, static_cast<std::int64_t>(kTerminalJobsKept));
    EXPECT_NE(daemon_error([&] { client.status(1); }).find("no such job"),
              std::string::npos);
    EXPECT_NE(daemon_error([&] { client.result(1, /*wait=*/false); })
                  .find("no such job"),
              std::string::npos);
    EXPECT_NE(daemon_error([&] { client.result(1, /*wait=*/true); })
                  .find("no such job"),
              std::string::npos);
    EXPECT_NE(daemon_error([&] { client.cancel(1); }).find("no such job"),
              std::string::npos);
    EXPECT_EQ(client.status(jobs).at("state").as_string(), "done");
    EXPECT_EQ(client.result(jobs, /*wait=*/false).at("state").as_string(),
              "done");
  };

  options.socket_path = test_socket_path("job_window1");
  {
    ServiceDaemon daemon(options);
    daemon.start();
    std::thread waiter([&] { daemon.wait(); });
    Client client(options.socket_path);
    for (std::int64_t i = 1; i <= jobs; ++i) {
      EXPECT_EQ(client.submit(cheap_spec("window")), i);
      EXPECT_EQ(client.result(i, /*wait=*/true).at("state").as_string(),
                "done");
    }
    expect_window(daemon, client);
    EXPECT_EQ(daemon.queue().stats().completed, jobs);
    client.shutdown();
    waiter.join();
  }

  options.socket_path = test_socket_path("job_window2");
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    expect_window(daemon, client);
    EXPECT_EQ(daemon.queue().stats().recovered, 0);
    client.shutdown();
  }
  waiter.join();
  std::filesystem::remove_all(state_dir);
}

/// Each record's (type, job id) in file order, read straight from the
/// bytes: Journal::open() would fold and compact them.
std::vector<std::pair<JournalRecordType, std::int64_t>> journal_records(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto be = [&](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v = (v << 8) | static_cast<unsigned char>(data[at + i]);
    }
    return v;
  };
  std::vector<std::pair<JournalRecordType, std::int64_t>> records;
  // 8-byte file magic, then u32 body length | u32 crc | u8 type | u64 id.
  for (std::size_t at = 8; at + 17 <= data.size(); at += 8 + be(at, 4)) {
    records.emplace_back(static_cast<JournalRecordType>(be(at + 8, 1)),
                         static_cast<std::int64_t>(be(at + 9, 8)));
  }
  return records;
}

// JOURNAL ORDER: the queue writes every transition record itself, so each
// job's records follow its transitions, and a late result that loses to
// the watchdog writes nothing.
TEST(AdmissionQueue, JournalsEachTransitionInOrder) {
  using Type = JournalRecordType;
  const std::string dir = test_state_dir("queue_journal");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.bin";
  std::int64_t done = 0, failed = 0, cancelled = 0, late = 0;
  {
    Journal journal(JournalOptions{.path = path});
    journal.open();
    AdmissionQueue queue(8, &journal);
    std::string error;
    bool retryable = false;
    done = queue.submit(1, cheap_spec("done"), error, retryable);
    failed = queue.submit(2, cheap_spec("failed"), error, retryable);
    cancelled = queue.submit(1, cheap_spec("cancelled"), error, retryable);
    EXPECT_TRUE(queue.cancel(cancelled, error));
    const auto batch = queue.pop_batch(4, [] { return 100.0; });
    ASSERT_EQ(batch.size(), 2u);
    const auto& done_job = batch[0]->id == done ? batch[0] : batch[1];
    const auto& failed_job = batch[0]->id == done ? batch[1] : batch[0];
    EXPECT_TRUE(queue.finish(
        done_job, JobOutcome::done(dummy_result(done_job->spec)), 1));
    EXPECT_TRUE(queue.finish(
        failed_job, JobOutcome::failed("EXEC_ERROR", "boom"), 1));

    late = queue.submit(3, cheap_spec("late"), error, retryable);
    const auto overdue = queue.pop_batch(1, [] { return 100.0; });
    ASSERT_EQ(overdue.size(), 1u);
    EXPECT_EQ(queue.expire_overdue(5200.0, 5000.0).size(), 1u);
    const std::int64_t appends = journal.stats().appends;
    EXPECT_FALSE(queue.finish(
        overdue[0], JobOutcome::done(dummy_result(overdue[0]->spec)), 9.0));
    EXPECT_EQ(journal.stats().appends, appends);
    queue.stop();
  }

  std::map<std::int64_t, std::vector<Type>> by_job;
  for (const auto& [type, id] : journal_records(path)) {
    by_job[id].push_back(type);
  }
  const std::vector<Type> ran = {Type::kAdmit, Type::kDispatch,
                                 Type::kComplete};
  EXPECT_EQ(by_job[done], ran);
  EXPECT_EQ(by_job[failed], ran);
  EXPECT_EQ(by_job[late], ran);
  EXPECT_EQ(by_job[cancelled],
            (std::vector<Type>{Type::kAdmit, Type::kCancel}));
  EXPECT_EQ(by_job.size(), 4u);

  // Replay folds the same file into each job's outcome; a done job's
  // COMPLETE names its store key.
  Journal reopened(JournalOptions{.path = path});
  const JournalReplay replay = reopened.open();
  ASSERT_EQ(replay.jobs.size(), 4u);
  std::map<std::int64_t, ReplayedJob> replayed;
  for (const ReplayedJob& job : replay.jobs) replayed.emplace(job.id, job);
  EXPECT_EQ(replayed[done].outcome, ReplayedJob::Outcome::kDone);
  EXPECT_EQ(replayed[done].store_key,
            to_hex(fingerprint_bytes(cheap_spec("done").canonical_json())));
  EXPECT_EQ(replayed[failed].error_code, "EXEC_ERROR");
  EXPECT_EQ(replayed[cancelled].outcome, ReplayedJob::Outcome::kCancelled);
  EXPECT_EQ(replayed[late].error_code, "JOB_TIMEOUT");
  EXPECT_EQ(replayed[late].dispatches, 1);
  reopened.close();
  std::filesystem::remove_all(dir);
}

/// While alive, no file of this process may grow past `path`'s current
/// size: the journal's next write fails with EFBIG, as on a full disk.
class JournalFull {
 public:
  explicit JournalFull(const std::string& path) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = static_cast<rlim_t>(std::filesystem::file_size(path));
    ::setrlimit(RLIMIT_FSIZE, &cap);
  }
  ~JournalFull() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
};

// A transition whose record cannot be written does not happen: the append
// error reaches the caller and the queue is as it was.
TEST(AdmissionQueue, FailedAppendLeavesTheTransitionUndone) {
  const std::string dir = test_state_dir("queue_append_error");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.bin";
  Journal journal(JournalOptions{.path = path});
  journal.open();
  AdmissionQueue queue(8, &journal);
  std::string error;
  bool retryable = false;
  queue.submit(1, cheap_spec("running"), error, retryable);
  const auto running = queue.pop_batch(1);
  ASSERT_EQ(running.size(), 1u);
  const std::int64_t queued =
      queue.submit(2, cheap_spec("queued"), error, retryable);
  {
    const JournalFull full(path);
    EXPECT_THROW(queue.submit(1, cheap_spec("refused"), error, retryable),
                 sdpm::Error);
    EXPECT_THROW(queue.cancel(queued, error), sdpm::Error);
    EXPECT_THROW(queue.pop_batch(4), sdpm::Error);
    EXPECT_THROW(queue.finish(running[0],
                              JobOutcome::done(dummy_result(running[0]->spec)),
                              1.0),
                 sdpm::Error);
  }
  QueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.depth, 1u);
  EXPECT_EQ(stats.running, 1u);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(queue.snapshot(queued)->state, JobState::kQueued);
  EXPECT_EQ(running[0]->state, JobState::kRunning);
  EXPECT_EQ(journal.stats().appends, 3);

  // With the disk writable again the same transitions go through, and
  // the refused admission consumed no id.
  EXPECT_EQ(queue.submit(1, cheap_spec("admitted"), error, retryable), 3);
  const auto popped = queue.pop_batch(4);
  ASSERT_EQ(popped.size(), 2u);
  // The rotation resumes after session 1, as if the refused pop had not
  // happened.
  EXPECT_EQ(popped[0]->id, queued);
  EXPECT_EQ(popped[1]->id, 3);
  EXPECT_TRUE(queue.finish(running[0],
                           JobOutcome::done(dummy_result(running[0]->spec)),
                           1.0));
  queue.stop();
  journal.close();
  std::filesystem::remove_all(dir);
}

TEST(ServiceDaemon, QuarantinesPoisonJobsAtRecovery) {
  const std::string state_dir = test_state_dir("poison");
  std::filesystem::create_directories(state_dir);
  // Forge the journal of a job that took three daemon lives down:
  // three DISPATCH records, no completion.
  {
    Journal journal(JournalOptions{.path = state_dir + "/journal.bin"});
    journal.open();
    journal.admit(1, 1, cheap_spec("poison").canonical_json());
    for (int i = 0; i < 3; ++i) journal.dispatch(1);
    journal.admit(2, 1, cheap_spec("innocent").canonical_json());
    journal.dispatch(2);
  }

  DaemonOptions options;
  options.socket_path = test_socket_path("poison");
  options.jobs = 2;
  options.state_dir = state_dir;
  options.max_attempts = 3;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    // The poison job is a structured failure, not an infinite re-queue.
    const Json poisoned = client.result(1, /*wait=*/true);
    EXPECT_EQ(poisoned.at("state").as_string(), "failed");
    EXPECT_EQ(poisoned.at("code").as_string(), "QUARANTINED");
    // The job with attempts to spare still runs to completion.
    EXPECT_EQ(client.result(2, true).at("state").as_string(), "done");
    client.shutdown();
  }
  waiter.join();

  // The quarantine itself was journaled: the NEXT life restores the job
  // as failed instead of counting attempts again.
  DaemonOptions next = options;
  next.socket_path = test_socket_path("poison2");
  ServiceDaemon daemon2(next);
  daemon2.start();
  const auto snap = daemon2.queue().snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kFailed);
  EXPECT_EQ(snap->error_code, "QUARANTINED");
  EXPECT_EQ(daemon2.queue().stats().recovered, 0);
  daemon2.request_shutdown();
  daemon2.wait();
  std::filesystem::remove_all(state_dir);
}

TEST(ServiceDaemon, WatchdogFailsOverrunningJobsEndToEnd) {
  // A 0.01 ms deadline: every real job overruns it, so the watchdog must
  // convert the whole batch into structured JOB_TIMEOUT failures.
  DaemonOptions options;
  options.socket_path = test_socket_path("watchdog");
  options.jobs = 2;
  options.job_timeout_ms = 0.01;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    const std::int64_t id = client.submit(cheap_spec("overrun"));
    const Json result = client.result(id, /*wait=*/true);
    if (result.at("state").as_string() == "failed") {
      EXPECT_EQ(result.at("code").as_string(), "JOB_TIMEOUT");
      const Json stats = client.stats();
      EXPECT_GE(stats.at("queue").at("timed_out").as_int(), 1);
    }  // else the job won the race — legal, the deadline is best-effort
    client.shutdown();
  }
  waiter.join();
}

// ---------------------------------------------------------------------------
// PROTOCOL HARDENING: oversized frames, torn frames, fuzz

int raw_connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(w);
  }
}

std::string be32(std::uint32_t v) {
  std::string out;
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v));
  return out;
}

TEST(ServiceDaemon, OversizedFrameGetsStructuredErrorAndResyncs) {
  DaemonOptions options;
  options.socket_path = test_socket_path("oversize");
  options.jobs = 2;
  options.max_frame_bytes = 1024;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    const int fd = raw_connect(options.socket_path);
    // 2 KB payload against a 1 KB cap: the daemon discards it, answers
    // with FRAME_TOO_LARGE, and KEEPS SERVING on the same connection.
    raw_send(fd, be32(2048) + std::string(2048, 'x'));
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload));
    Json response = Json::parse(payload);
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("code").as_string(), "FRAME_TOO_LARGE");

    write_frame(fd, "{\"op\":\"ping\"}");
    ASSERT_TRUE(read_frame(fd, payload));
    EXPECT_TRUE(Json::parse(payload).at("ok").as_bool());

    // A "negative" length prefix cannot be resynchronized: the daemon
    // still answers with a structured error, then closes.
    raw_send(fd, be32(0x80000001u));
    ASSERT_TRUE(read_frame(fd, payload));
    response = Json::parse(payload);
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("code").as_string(), "FRAME_TOO_LARGE");
    EXPECT_FALSE(read_frame(fd, payload));  // clean EOF
    ::close(fd);
  }
  // The daemon survived all of it.
  {
    Client client(options.socket_path);
    client.ping();
    client.shutdown();
  }
  waiter.join();
}

TEST(ServiceDaemon, SurvivesMalformedAndTruncatedFrames) {
  DaemonOptions options;
  options.socket_path = test_socket_path("fuzz");
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });

  // Garbage payloads inside well-formed frames: structured errors, the
  // connection stays healthy.  The hostile ones: 1 MB of '[' (parser
  // nesting) and a submit whose inline device declares 20,000 states (a
  // 20,000 x 20,000 edge matrix if it were allocated).
  std::string huge_device = "{\"name\":\"huge\",\"edges\":[],\"states\":[";
  for (int i = 0; i < 20'000; ++i) {
    huge_device += (i == 0 ? "{\"name\":\"s" : ",{\"name\":\"s") +
                   std::to_string(i) + "\"}";
  }
  huge_device += "]}";
  {
    const int fd = raw_connect(options.socket_path);
    for (const std::string& bad :
         {std::string("this is not json"), std::string("[1,2,3"),
          std::string("{\"no_op\":true}"), std::string("{\"op\":42}"),
          std::string("\x00\xff\x7f garbage \x01", 12),
          std::string(1'000'000, '['),
          "{\"op\":\"submit\",\"spec\":{\"benchmark\":\"galgel\","
          "\"device\":" +
              huge_device + "}}"}) {
      write_frame(fd, bad);
      std::string payload;
      ASSERT_TRUE(read_frame(fd, payload));
      const Json response = Json::parse(payload);
      EXPECT_FALSE(response.at("ok").as_bool());
      EXPECT_TRUE(response.contains("error"));
    }
    write_frame(fd, "{\"op\":\"ping\"}");
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload));
    EXPECT_TRUE(Json::parse(payload).at("ok").as_bool());
    ::close(fd);
  }

  // Torn frames: announce more than is sent, then hang up mid-frame.  The
  // daemon drops that connection and nothing else.
  for (const std::string& torn :
       {be32(100) + std::string(10, 'y'), be32(1), std::string("\x00", 1),
        std::string("ABC")}) {
    const int fd = raw_connect(options.socket_path);
    raw_send(fd, torn);
    ::close(fd);
  }
  {
    Client client(options.socket_path);
    client.ping();
    client.shutdown();
  }
  waiter.join();
  EXPECT_TRUE(daemon.done());
}

// A JSON number past double range parses as inf.  A spec carrying one is
// refused at admission naming the field: admitted, it finished with inf
// energy that no status or result request could serialize.
TEST(ServiceDaemon, NonFiniteSpecIsRefusedAtAdmission) {
  DaemonOptions options;
  options.socket_path = test_socket_path("non_finite");
  options.jobs = 1;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    const int fd = raw_connect(options.socket_path);
    write_frame(fd,
                "{\"op\":\"submit\",\"spec\":{\"schemes\":[\"CMTPM\"],"
                "\"noise_sigma\":1e999}}");
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload));
    const Json response = Json::parse(payload);
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_FALSE(response.contains("id"));
    EXPECT_NE(response.at("error").as_string().find("noise_sigma"),
              std::string::npos)
        << payload;
    ::close(fd);
  }
  {
    Client client(options.socket_path);
    EXPECT_EQ(client.stats().at("queue").at("submitted").as_int(), 0);
    client.shutdown();
  }
  waiter.join();
}

// The daemon has no "analyze" op (static analysis runs in-process through
// api::Session); it and any invented op get the structured unknown-op
// error, and the connection keeps serving.
TEST(ServiceDaemon, UnknownOpsAreRejected) {
  DaemonOptions options;
  options.socket_path = test_socket_path("unknown_op");
  options.jobs = 1;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    const int fd = raw_connect(options.socket_path);
    const std::string spec = cheap_spec("x").canonical_json();
    for (const std::string& request :
         {"{\"op\":\"analyze\",\"spec\":" + spec + "}",
          std::string("{\"op\":\"frobnicate\"}")}) {
      SCOPED_TRACE(request);
      write_frame(fd, request);
      std::string payload;
      ASSERT_TRUE(read_frame(fd, payload));
      const Json response = Json::parse(payload);
      EXPECT_FALSE(response.at("ok").as_bool());
      EXPECT_NE(response.at("error").as_string().find("unknown op"),
                std::string::npos);
    }
    write_frame(fd, "{\"op\":\"ping\"}");
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload));
    EXPECT_TRUE(Json::parse(payload).at("ok").as_bool());
    ::close(fd);
  }
  {
    Client client(options.socket_path);
    client.shutdown();
  }
  waiter.join();
}

TEST(ServiceDaemon, OverCapResultIsStructuredNotTruncated) {
  // Find the gap between "submit fits" and "result does not": the real
  // result document for this spec, measured directly.  All seven schemes
  // make the result several times larger than the submit frame.
  api::JobSpec spec = api::JobSpecBuilder("galgel").build();
  spec.label = "too-big";
  Json submit = Json::object();
  submit.set("op", std::string("submit")).set("spec", spec.to_json());
  const std::size_t submit_bytes = submit.dump().size();
  api::Session session(api::SessionOptions{.jobs = 2});
  const std::size_t result_bytes =
      session.run(spec).to_json().dump().size();
  const std::uint32_t cap = static_cast<std::uint32_t>(submit_bytes + 256);
  ASSERT_GT(result_bytes, cap) << "result unexpectedly small; the cap "
                                  "cannot sit between submit and result";

  DaemonOptions options;
  options.socket_path = test_socket_path("toolarge");
  options.jobs = 2;
  options.max_frame_bytes = cap;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    const std::int64_t id = client.submit(spec);
    Json message = Json::object();
    message.set("op", std::string("result")).set("id", id).set("wait", true);
    const Json response = client.request(message);
    // Silent-data-loss guard: never a truncated frame, never a hang — a
    // structured RESULT_TOO_LARGE error.
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("code").as_string(), "RESULT_TOO_LARGE");
    // The job itself completed; only the transport refused the payload.
    EXPECT_EQ(daemon.queue().snapshot(id)->state, JobState::kDone);
    client.shutdown();
  }
  waiter.join();
}

// ---------------------------------------------------------------------------
// SIGTERM drain racing concurrent cancels: every job terminal exactly once

TEST(ServiceDaemon, DrainRacesConcurrentCancelsLosslessly) {
  DaemonOptions options;
  options.socket_path = test_socket_path("drainrace");
  options.queue_capacity = 64;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });

  daemon.queue().pause(true);  // hold dispatch so cancels have targets
  std::vector<std::int64_t> ids;
  {
    Client client(options.socket_path);
    for (int i = 0; i < 24; ++i) {
      ids.push_back(client.submit(cheap_spec("race-" + std::to_string(i))));
    }
  }

  // Three cancellers race the drain (the SIGTERM path) while the
  // dispatcher is still held; each cancel either wins or reports a clean
  // failure — never a crash, never a lost job.
  std::atomic<int> cancelled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Client client(options.socket_path);
      for (std::size_t i = static_cast<std::size_t>(t); i < ids.size();
           i += 3) {
        try {
          client.cancel(ids[i]);
          cancelled.fetch_add(1);
        } catch (const sdpm::Error&) {
          // already running/terminal — someone else won the race
        }
      }
    });
  }
  threads.emplace_back([&] {
    Client client(options.socket_path);
    client.drain();
  });
  for (std::thread& t : threads) t.join();
  daemon.queue().pause(false);
  daemon.queue().wait_drained();

  // Exactly-once accounting: done + cancelled covers every admitted job.
  int done = 0;
  int cancelled_seen = 0;
  for (const std::int64_t id : ids) {
    const auto snap = daemon.queue().snapshot(id);
    ASSERT_TRUE(snap.has_value());
    ASSERT_TRUE(is_terminal(snap->state));
    if (snap->state == JobState::kDone) ++done;
    if (snap->state == JobState::kCancelled) ++cancelled_seen;
  }
  EXPECT_EQ(done + cancelled_seen, 24);
  EXPECT_EQ(cancelled_seen, cancelled.load());
  const QueueStats stats = daemon.queue().stats();
  EXPECT_EQ(stats.completed + stats.cancelled, 24);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.running, 0u);

  daemon.request_shutdown();
  waiter.join();
}

// ---------------------------------------------------------------------------
// CLIENT RETRY: seeded jitter, bounded backoff, connect retries

TEST(Client, ConnectRetriesUntilTheDaemonAppears) {
  DaemonOptions options;
  options.socket_path = test_socket_path("lateboot");
  options.jobs = 2;
  ServiceDaemon daemon(options);

  // Start the daemon AFTER the client begins connecting: only the retry
  // path can succeed.
  std::thread booter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    daemon.start();
  });
  ClientOptions retry;
  retry.connect_attempts = 50;
  retry.backoff_base_ms = 5;
  Client client(options.socket_path, retry);
  booter.join();
  client.ping();
  client.shutdown();
  daemon.wait();
}

TEST(Client, FailsFastOnPermanentConnectErrors) {
  ClientOptions retry;
  retry.connect_attempts = 3;
  retry.backoff_base_ms = 1;
  EXPECT_THROW(Client("/tmp/sdpm_definitely_absent.sock", retry),
               sdpm::Error);
}

// ---------------------------------------------------------------------------
// TELEMETRY: the telemetry op, counter reconciliation, journal counters,
// trace-id propagation and Chrome-trace stitching

TEST(ServiceDaemon, TelemetryReconcilesWithQueueStats) {
  DaemonOptions options;
  options.socket_path = test_socket_path("telemetry");
  options.queue_capacity = 32;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(client.submit(cheap_spec("tel-" + std::to_string(i))));
    }
    // One job cancelled before it can possibly run is still fine for the
    // invariant: cancellation is a terminal state without an e2e sample.
    for (const std::int64_t id : ids) client.result(id, /*wait=*/true);

    const Json stats = client.stats().at("queue");
    // Telemetry outcome stamps land just after the queue's terminal
    // transition (the client can observe "done" in between), so give the
    // counters a bounded moment to converge before asserting equality.
    Json telemetry = client.telemetry().at("telemetry");
    for (int spin = 0; spin < 200; ++spin) {
      if (telemetry.at("stages").at("e2e").at("count").as_int() ==
          stats.at("completed").as_int() + stats.at("failed").as_int()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      telemetry = client.telemetry().at("telemetry");
    }
    const Json& stages = telemetry.at("stages");

    // Invariant: submitted == completed + failed + cancelled + rejected +
    // in-flight, and the e2e histogram saw exactly the evaluated
    // terminals (completed + failed).
    const std::int64_t submitted = stats.at("submitted").as_int();
    const std::int64_t completed = stats.at("completed").as_int();
    const std::int64_t failed = stats.at("failed").as_int();
    const std::int64_t in_flight =
        stats.at("depth").as_int() + stats.at("running").as_int();
    EXPECT_EQ(submitted, completed + failed + stats.at("cancelled").as_int() +
                             stats.at("rejected").as_int() + in_flight);
    EXPECT_EQ(stages.at("e2e").at("count").as_int(), completed + failed);
    EXPECT_EQ(stages.at("admit").at("count").as_int(), submitted);
    EXPECT_EQ(stages.at("queue_wait").at("count").as_int(),
              completed + failed);
    // Every op handled so far wrote a response.
    EXPECT_GT(stages.at("respond").at("count").as_int(), 0);
    // Quantiles are ordered within every stage.
    for (const auto& [name, stage] : stages.as_object()) {
      EXPECT_LE(stage.at("p50_ms").as_double(),
                stage.at("p99_ms").as_double() + 1e-9)
          << name;
    }

    // Rolling windows and per-client aggregates reconcile too.
    EXPECT_EQ(telemetry.at("windows")
                  .at("completions")
                  .at("60s")
                  .at("count")
                  .as_int(),
              completed + failed);
    std::int64_t client_submitted = 0;
    for (const auto& [session, agg] : telemetry.at("clients").as_object()) {
      client_submitted += agg.at("submitted").as_int();
    }
    EXPECT_EQ(client_submitted, submitted);

    // The Prometheus rendering includes the stage summaries.
    const Json prom = client.telemetry(/*prometheus=*/true);
    EXPECT_NE(prom.at("text").as_string().find(
                  "sdpm_service_stage_latency_ms"),
              std::string::npos);
    client.shutdown();
  }
  waiter.join();
}

TEST(ServiceDaemon, StatsReportJournalCounters) {
  const std::string state_dir = test_state_dir("telemetry_journal");
  DaemonOptions options;
  options.socket_path = test_socket_path("telemetry_journal");
  options.state_dir = state_dir;
  options.fsync_journal = true;
  options.jobs = 2;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    const std::int64_t id = client.submit(cheap_spec("journal-counters"));
    client.result(id, /*wait=*/true);
    const Json stats = client.stats();
    ASSERT_TRUE(stats.contains("journal"));
    const Json& journal = stats.at("journal");
    // ADMIT + DISPATCH + DONE for one job: at least three appends, each
    // fsynced (fsync_journal is on).  Opening the journal always compacts
    // it to live state once; a clean file has no torn tail.
    EXPECT_GE(journal.at("appends").as_int(), 3);
    EXPECT_GE(journal.at("fsyncs").as_int(), 3);
    EXPECT_EQ(journal.at("compactions").as_int(), 1);
    EXPECT_EQ(journal.at("torn_tail_truncations").as_int(), 0);
    // The durability stages saw those fsyncs.
    const Json stages = client.telemetry().at("telemetry").at("stages");
    EXPECT_GE(stages.at("journal_fsync").at("count").as_int(), 3);
    client.shutdown();
  }
  waiter.join();
  std::filesystem::remove_all(state_dir);
}

// The status op reads the job table without waiting.
TEST(ServiceDaemon, StatusReportsQueuedThenDone) {
  DaemonOptions options;
  options.socket_path = test_socket_path("status");
  options.jobs = 1;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    daemon.queue().pause(true);
    const std::int64_t id = client.submit(cheap_spec("status"));
    const Json queued = client.status(id);
    EXPECT_EQ(queued.at("id").as_int(), id);
    EXPECT_EQ(queued.at("label").as_string(), "status");
    EXPECT_EQ(queued.at("state").as_string(), "queued");
    EXPECT_FALSE(queued.contains("result"));

    daemon.queue().pause(false);
    client.result(id, /*wait=*/true);
    const Json done = client.status(id);
    EXPECT_EQ(done.at("state").as_string(), "done");
    EXPECT_TRUE(done.contains("result"));
    EXPECT_THROW(client.status(id + 100), sdpm::Error);
    client.shutdown();
  }
  waiter.join();
}

// --telemetry-dump: the periodic file always parses, and the snapshot
// written at shutdown has seen every job.
TEST(ServiceDaemon, TelemetryDumpCountsEveryJob) {
  const std::string state_dir = test_state_dir("telemetry_dump");
  std::filesystem::create_directories(state_dir);
  DaemonOptions options;
  options.socket_path = test_socket_path("telemetry_dump");
  options.jobs = 2;
  options.telemetry_dump = state_dir + "/telemetry.json";
  options.telemetry_interval_ms = 10;
  const auto read_dump = [&] {
    std::ifstream in(options.telemetry_dump);
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
  };
  constexpr int kJobs = 3;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    for (int i = 0; i < kJobs; ++i) {
      client.result(client.submit(cheap_spec("dump-" + std::to_string(i))),
                    /*wait=*/true);
    }
    for (int spin = 0; spin < 500; ++spin) {
      if (std::filesystem::exists(options.telemetry_dump)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const bool dumped = std::filesystem::exists(options.telemetry_dump);
    EXPECT_TRUE(dumped);
    if (dumped) {
      EXPECT_TRUE(read_dump().at("stages").contains("e2e"));
    }
    client.shutdown();
  }
  waiter.join();
  EXPECT_EQ(read_dump().at("stages").at("e2e").at("count").as_int(), kJobs);
  std::filesystem::remove_all(state_dir);
}

TEST(ServiceDaemon, TraceIdStitchesServiceAndDiskTracks) {
  std::ostringstream trace_out;
  obs::EventTracer tracer;
  obs::ChromeTraceSink sink(trace_out);
  tracer.add_sink(sink);

  DaemonOptions options;
  options.socket_path = test_socket_path("stitch");
  options.jobs = 2;
  options.tracer = &tracer;
  ServiceDaemon daemon(options);
  daemon.start();
  std::thread waiter([&] { daemon.wait(); });
  {
    Client client(options.socket_path);
    TraceContext trace;
    trace.trace_id = 0xabcdef12ull;
    trace.span_id = 7;
    const std::int64_t id = client.submit(cheap_spec("stitched"), 8, trace);
    const Json done = client.result(id, /*wait=*/true);
    EXPECT_EQ(done.at("state").as_string(), "done");
    client.shutdown();
  }
  waiter.join();
  tracer.close();

  // One trace file, one trace_id, two clocks: the service stages ride
  // pid 3 (wall time), the replayed job span rides pid 1 (simulated
  // time), and the shared trace_id is what a viewer joins them on.
  const Json doc = Json::parse(trace_out.str());
  const std::string want_id = trace_hex(0xabcdef12ull);
  bool service_stage_tagged = false;
  bool sim_span_tagged = false;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    const Json* event_args = event.find("args");
    if (event_args == nullptr) continue;
    const Json* tagged = event_args->find("trace_id");
    if (tagged == nullptr || tagged->as_string() != want_id) continue;
    const std::int64_t pid = event.at("pid").as_int();
    if (pid == 3) service_stage_tagged = true;
    if (pid == 1) sim_span_tagged = true;
  }
  EXPECT_TRUE(service_stage_tagged);
  EXPECT_TRUE(sim_span_tagged);
}

}  // namespace
}  // namespace sdpm::service
