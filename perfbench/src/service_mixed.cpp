// service_mixed: an in-process service::ServiceDaemon with a fresh state
// directory (journal and result store on), driven closed-loop over its Unix
// socket: every client connection submits, then waits for the result, as
// `sdpm_cli client run` does.
//
// Jobs are short swim/galgel DRPM jobs in three seeded classes:
//   hit      an exact repeat of a pre-filled spec: a store hit, no simulation
//   relabel  the pre-filled swim spec under a new label: a store miss (the
//            store key includes the label) but a TraceCache hit
//   fresh    a new noise_seed: both the store and the TraceCache miss
// A DRPM job looks its trace up exactly once, so the daemon's store and
// trace_cache counters measure the class mix, which must equal the
// generated one.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "api/job_result.h"
#include "api/session.h"
#include "common.h"
#include "experiments/trace_cache.h"
#include "service/client.h"
#include "service/daemon.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace api = sdpm::api;
namespace svc = sdpm::service;
namespace fs = std::filesystem;
using sdpm::Json;

constexpr int kClients = 4;
constexpr int kSetupReps = 9;
/// The run submits this many jobs per requested second: about that long on
/// an idle 4-core host.  A fixed job count keeps the inputs, the memory the
/// daemon retains and the check time the same on a busy host.
constexpr double kJobsPerSecond = 800;
/// Completions per sample of throughput and p99 (ten jobs beyond the p99).
constexpr std::size_t kGroup = 1000;
const char* const kPool[] = {"swim", "galgel"};
constexpr std::size_t kPoolSize = 2;

enum class Klass { kHit = 0, kRelabel = 1, kFresh = 2 };
constexpr const char* kKlassNames[] = {"hit", "relabel", "fresh"};

/// Each client draws its classes in seeded shuffles of this block: 40% hits,
/// 30% relabels, 30% fresh.  The class boundaries sit at the 40th and 70th
/// percentile, away from every class median and from the overall p99.  A
/// client meets a relabel at least every 14 jobs, so at most 6 of its fresh
/// jobs run between two touches of the relabel target: far fewer than the
/// 32-entry TraceCache LRU needs to evict it, even summed over 4 clients.
constexpr Klass kBlock[] = {Klass::kHit,     Klass::kHit,     Klass::kHit,
                            Klass::kHit,     Klass::kRelabel, Klass::kRelabel,
                            Klass::kRelabel, Klass::kFresh,   Klass::kFresh,
                            Klass::kFresh};
constexpr std::int64_t kBlockSize = 10;

api::JobSpec pool_spec(std::uint64_t seed, std::size_t i) {
  api::JobSpec spec = seeded_spec(kPool[i], seed, 100 + i);
  spec.schemes = {"DRPM"};
  spec.label = std::string("pool-") + kPool[i];
  spec.validate();
  return spec;
}

struct Input {
  Klass klass = Klass::kFresh;
  std::size_t pool = 0;  ///< the pool entry this job derives from
  api::JobSpec spec;
};

/// The k-th job of client c, from the seed alone.
Input make_input(std::uint64_t seed, const std::vector<api::JobSpec>& pool,
                 int c, std::int64_t k) {
  const auto stream = static_cast<std::uint64_t>(c) + 1;
  Klass block[kBlockSize];
  std::copy(std::begin(kBlock), std::end(kBlock), block);
  sdpm::SplitMix64 rng(static_cast<std::uint64_t>(
      derive(seed, 50 + stream, static_cast<std::uint64_t>(k / kBlockSize))));
  for (std::int64_t i = kBlockSize - 1; i > 0; --i) {
    std::swap(block[i], block[rng.next_u64() %
                             static_cast<std::uint64_t>(i + 1)]);
  }
  const auto index = static_cast<std::uint64_t>(k);
  const std::string tag = std::to_string(c) + "-" + std::to_string(k);
  Input in;
  in.klass = block[k % kBlockSize];
  switch (in.klass) {
    case Klass::kHit:
      in.pool = static_cast<std::size_t>(derive(seed, 20 + stream, index)) %
                kPoolSize;
      in.spec = pool[in.pool];
      break;
    case Klass::kRelabel:
      in.pool = 0;
      in.spec = pool[0];
      in.spec.label = "relabel-" + tag;
      break;
    case Klass::kFresh:
      in.pool = static_cast<std::size_t>(derive(seed, 30 + stream, index)) %
                kPoolSize;
      in.spec = pool[in.pool];
      in.spec.noise_seed = derive(seed, 40 + stream, index);
      in.spec.label = "fresh-" + tag;
      break;
  }
  return in;
}

/// One completed round trip, kept small: results are checked through a
/// digest of their outcomes, store hits against the pre-fill bytes at once.
struct Op {
  int client = 0;
  std::int64_t k = 0;
  Klass klass = Klass::kFresh;
  Clock::time_point t0, t1, t2;  ///< submit start, submit end, result end
  bool ok = false;
  bool hit_bytes_match = true;
  std::size_t digest = 0;
};

/// Digest of everything JobResult equality compares.
std::size_t digest_of(api::JobResult result) {
  result.wall_ms = 0;
  result.notes.clear();
  result.analysis_json.clear();
  return std::hash<std::string>{}(result.to_json().dump());
}

/// The daemon, its state directory and the client connections of one run.
class Harness {
 public:
  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() { stop(); }

  void start(const std::string& work_dir, unsigned workers) {
    stop();
    const std::string pid = std::to_string(::getpid());
    state_dir_ = work_dir + "/service-state-" + pid;
    socket_ = work_dir + "/service-" + pid + ".sock";
    fs::remove_all(state_dir_);
    fs::create_directories(state_dir_);
    svc::DaemonOptions options;
    options.socket_path = socket_;
    options.jobs = workers;
    options.state_dir = state_dir_;
    daemon_ = std::make_unique<svc::ServiceDaemon>(options);
    daemon_->start();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<svc::Client>(socket_));
    }
  }

  void stop() {
    clients.clear();
    if (daemon_ != nullptr) {
      daemon_->request_shutdown();
      daemon_->wait();
      daemon_.reset();
    }
    std::error_code ec;
    if (!state_dir_.empty()) fs::remove_all(state_dir_, ec);
    if (!socket_.empty()) fs::remove(socket_, ec);
  }

  std::vector<std::unique_ptr<svc::Client>> clients;

 private:
  std::string state_dir_;
  std::string socket_;
  std::unique_ptr<svc::ServiceDaemon> daemon_;
};

std::int64_t counter(const Json& stats, const char* name) {
  const Json* value = stats.at("counters").find(name);
  return value == nullptr ? 0 : value->as_int();
}

std::int64_t section(const Json& stats, const char* object, const char* name) {
  return stats.at(object).at(name).as_int();
}

double stage(const Json& telemetry, const char* name, const char* field) {
  return telemetry.at("telemetry").at("stages").at(name).at(field).as_double();
}

double class_ms(const std::vector<Op>& ops, Klass klass, double q) {
  std::vector<double> ms;
  for (const Op& op : ops) {
    if (op.ok && op.klass == klass) ms.push_back(ms_between(op.t0, op.t2));
  }
  return quantile(std::move(ms), q);
}

/// Each completed job's result must equal an in-process Session::run of its
/// spec.  Distinct contents are recomputed once each, on `workers` threads.
void verify(const std::vector<Op>& ops, std::uint64_t seed,
            const std::vector<api::JobSpec>& pool,
            const std::vector<std::string>& pool_bytes, unsigned workers,
            Outcome& out) {
  sdpm::experiments::TraceCache::global().clear();
  api::Session session(api::SessionOptions{.jobs = 1});
  std::vector<api::JobResult> pool_expected;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool_expected.push_back(session.run(pool[i]));
    if (!(api::JobResult::from_json(Json::parse(pool_bytes[i])) ==
          pool_expected[i])) {
      out.fail("pre-filled result of " + pool[i].label +
               " differs from Session::run");
    }
  }

  std::vector<const Op*> fresh;
  std::int64_t hit_mismatches = 0;
  std::int64_t relabel_mismatches = 0;
  for (const Op& op : ops) {
    if (!op.ok) continue;
    if (op.klass == Klass::kHit) {
      hit_mismatches += op.hit_bytes_match ? 0 : 1;
    } else if (op.klass == Klass::kRelabel) {
      api::JobResult expected = pool_expected[0];
      expected.label = make_input(seed, pool, op.client, op.k).spec.label;
      relabel_mismatches += digest_of(expected) == op.digest ? 0 : 1;
    } else {
      fresh.push_back(&op);
    }
  }
  if (hit_mismatches > 0) {
    out.fail(std::to_string(hit_mismatches) +
             " store hits did not return the first computation's bytes");
  }
  if (relabel_mismatches > 0) {
    out.fail(std::to_string(relabel_mismatches) +
             " relabelled jobs differ from Session::run");
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      api::Session local(api::SessionOptions{.jobs = 1});
      for (std::size_t j = next++; j < fresh.size(); j = next++) {
        const Op& op = *fresh[j];
        try {
          const api::JobSpec spec =
              make_input(seed, pool, op.client, op.k).spec;
          if (digest_of(local.run(spec)) != op.digest) ++mismatches;
        } catch (const std::exception&) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (mismatches > 0) {
    out.fail(std::to_string(mismatches.load()) +
             " fresh jobs differ from Session::run");
  }
}

}  // namespace

void run_service_mixed(const Args& args, Outcome& out) {
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  pin_workers(workers);
  fs::create_directories(args.work_dir);

  std::vector<api::JobSpec> pool;
  std::vector<std::string> pool_bytes;
  Harness harness;
  SetupTimer setup([&] {
    sdpm::experiments::TraceCache::global().clear();
    pool.clear();
    pool_bytes.clear();
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(pool_spec(args.seed, i));
    }
    harness.start(args.work_dir, workers);
    svc::Client& client = *harness.clients.front();
    for (const api::JobSpec& spec : pool) {
      const Json job = client.result(client.submit(spec), true);
      if (job.at("state").as_string() != "done") {
        throw std::runtime_error("pre-fill job " + spec.label + " failed");
      }
      pool_bytes.push_back(job.at("result").dump());
    }
  });
  for (int i = 0; i <= kSetupReps; ++i) setup.run();
  out.info("workload=service_mixed seed=" + std::to_string(args.seed) +
           " daemon_workers=" + std::to_string(workers) +
           " (DaemonOptions::jobs, set_default_jobs, malloc arenas)"
           " client_connections=" +
           std::to_string(kClients) + " closed_loop=1 max_batch=16");

  const Json stats_before = harness.clients.front()->stats();
  const auto jobs_per_client = static_cast<std::int64_t>(
      std::max(kJobsPerSecond * args.seconds / kClients, 1.0));
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<Op>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      svc::Client& client = *harness.clients[static_cast<std::size_t>(c)];
      for (std::int64_t k = 0; k < jobs_per_client; ++k) {
        const Input in = make_input(args.seed, pool, c, k);
        Op op;
        op.client = c;
        op.k = k;
        op.klass = in.klass;
        op.t0 = Clock::now();
        try {
          const std::int64_t id = client.submit(in.spec);
          op.t1 = Clock::now();
          const Json job = client.result(id, true);
          op.t2 = Clock::now();
          op.ok = job.at("state").as_string() == "done";
          if (op.ok && in.klass == Klass::kHit) {
            op.hit_bytes_match = job.at("result").dump() == pool_bytes[in.pool];
          } else if (op.ok) {
            op.digest = digest_of(api::JobResult::from_json(job.at("result")));
          }
        } catch (const std::exception&) {
          op.t1 = op.t2 = Clock::now();
          op.ok = false;
        }
        per_client[static_cast<std::size_t>(c)].push_back(op);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Json stats_after = harness.clients.front()->stats();
  const Json telemetry = harness.clients.front()->telemetry();
  harness.stop();

  std::vector<Op> ops;
  for (const std::vector<Op>& client_ops : per_client) {
    ops.insert(ops.end(), client_ops.begin(), client_ops.end());
  }
  std::int64_t generated[3] = {0, 0, 0};
  std::vector<double> e2e;
  std::vector<const Op*> by_completion;
  for (const Op& op : ops) {
    ++out.attempted;
    if (!op.ok) {
      ++out.failed;
      continue;
    }
    ++generated[static_cast<int>(op.klass)];
    e2e.push_back(ms_between(op.t0, op.t2));
    by_completion.push_back(&op);
  }
  // Throughput and p99 per group of consecutive completions; the fastest
  // group is the figure, as a busy host slows every core for seconds at a
  // time (see README.md).
  std::sort(by_completion.begin(), by_completion.end(),
            [](const Op* a, const Op* b) { return a->t2 < b->t2; });
  double best_rate = 0;
  double best_p99 = 0;
  Clock::time_point group_start = start;
  for (std::size_t begin = 0; begin < by_completion.size(); begin += kGroup) {
    const std::size_t end = std::min(begin + kGroup, by_completion.size());
    std::vector<double> ms;
    for (std::size_t i = begin; i < end; ++i) {
      ms.push_back(ms_between(by_completion[i]->t0, by_completion[i]->t2));
    }
    const Clock::time_point group_end = by_completion[end - 1]->t2;
    const double rate = static_cast<double>(end - begin) /
                        (ms_between(group_start, group_end) / 1e3);
    const double p99 = quantile(std::move(ms), 0.99);
    best_rate = std::max(best_rate, rate);
    best_p99 = begin == 0 ? p99 : std::min(best_p99, p99);
    group_start = group_end;
  }
  if (out.failed > 0) {
    out.fail(std::to_string(out.failed) +
             " jobs failed, were rejected or timed out");
  }

  // The mix as the daemon counted it.
  const std::int64_t store_hits = section(stats_after, "store", "hits") -
                                  section(stats_before, "store", "hits");
  const std::int64_t store_misses = section(stats_after, "store", "misses") -
                                    section(stats_before, "store", "misses");
  const std::int64_t cache_hits = counter(stats_after, "trace_cache.hits") -
                                  counter(stats_before, "trace_cache.hits");
  const std::int64_t cache_misses =
      counter(stats_after, "trace_cache.misses") -
      counter(stats_before, "trace_cache.misses");
  const std::int64_t measured[3] = {store_hits, cache_hits, cache_misses};
  for (int k = 0; k < 3; ++k) {
    if (measured[k] != generated[k]) {
      out.fail(std::string("measured ") + kKlassNames[k] + " count " +
               std::to_string(measured[k]) + " departs from the generated " +
               std::to_string(generated[k]));
    }
  }
  if (store_misses != cache_hits + cache_misses) {
    out.fail("store misses " + std::to_string(store_misses) +
             " do not match the TraceCache lookups " +
             std::to_string(cache_hits + cache_misses));
  }

  verify(ops, args.seed, pool, pool_bytes, workers, out);

  const double completed = static_cast<double>(e2e.size());
  out.info("window_s=" + std::to_string(ms_between(start, group_start) / 1e3) +
           " jobs=" + std::to_string(e2e.size()) +
           " hit=" + std::to_string(generated[0]) +
           " relabel=" + std::to_string(generated[1]) +
           " fresh=" + std::to_string(generated[2]));
  if (!args.trace) {
    out.info("hit_p50_ms=" + std::to_string(class_ms(ops, Klass::kHit, 0.5)) +
             " relabel_p50_ms=" +
             std::to_string(class_ms(ops, Klass::kRelabel, 0.5)) +
             " miss_p50_ms=" +
             std::to_string(class_ms(ops, Klass::kFresh, 0.5)));
    out.metric("jobs_per_s", best_rate, "1/s");
    out.metric("e2e_p99_ms", best_p99, "ms");
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Client spans, kept in memory and written once.
  SpanLog spans;
  std::vector<double> submit_ms;
  std::vector<double> wait_ms;
  double e2e_sum = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    spans.record("client.submit", op.t0, op.t1, static_cast<int>(i),
                 op.client);
    spans.record("client.wait", op.t1, op.t2, static_cast<int>(i), op.client);
    if (!op.ok) continue;
    submit_ms.push_back(ms_between(op.t0, op.t1));
    wait_ms.push_back(ms_between(op.t1, op.t2));
    e2e_sum += ms_between(op.t0, op.t2);
  }
  // What the daemon's stages explain of the mean client-observed latency:
  // admit, queue wait, dispatch, eval, and the submit and result responses.
  const double stage_mean_ms = stage(telemetry, "admit", "mean_ms") +
                               stage(telemetry, "queue_wait", "mean_ms") +
                               stage(telemetry, "dispatch", "mean_ms") +
                               stage(telemetry, "eval", "mean_ms") +
                               2 * stage(telemetry, "respond", "mean_ms");
  const double e2e_mean = e2e_sum / completed;
  const std::map<std::string, double> values = {
      {"hit_p50_ms", class_ms(ops, Klass::kHit, 0.5)},
      {"relabel_p50_ms", class_ms(ops, Klass::kRelabel, 0.5)},
      {"miss_p50_ms", class_ms(ops, Klass::kFresh, 0.5)},
      {"fail_ratio", static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted)},
      {"experiments.trace_cache_hits", static_cast<double>(cache_hits)},
      {"experiments.trace_cache_misses", static_cast<double>(cache_misses)},
      {"sim.requests_replayed",
       static_cast<double>(counter(stats_after, "sim.requests") -
                           counter(stats_before, "sim.requests"))},
      {"client.submit_p50_ms", median(submit_ms)},
      {"client.wait_p50_ms", median(wait_ms)},
      {"service.admit_p50_ms", stage(telemetry, "admit", "p50_ms")},
      {"service.queue_wait_p50_ms", stage(telemetry, "queue_wait", "p50_ms")},
      {"service.queue_wait_p99_ms", stage(telemetry, "queue_wait", "p99_ms")},
      {"service.dispatch_p50_ms", stage(telemetry, "dispatch", "p50_ms")},
      {"service.eval_p50_ms", stage(telemetry, "eval", "p50_ms")},
      {"service.eval_p99_ms", stage(telemetry, "eval", "p99_ms")},
      {"service.respond_p50_ms", stage(telemetry, "respond", "p50_ms")},
      {"service.e2e_p50_ms", stage(telemetry, "e2e", "p50_ms")},
      {"service.journal_append_p50_ms",
       stage(telemetry, "journal_append", "p50_ms")},
      {"service.store_get_p50_ms", stage(telemetry, "store_get", "p50_ms")},
      {"service.store_put_p50_ms", stage(telemetry, "store_put", "p50_ms")},
      {"service.store_hits", static_cast<double>(store_hits)},
      {"service.store_misses", static_cast<double>(store_misses)},
      {"service.journal_appends",
       static_cast<double>(section(stats_after, "journal", "appends") -
                           section(stats_before, "journal", "appends"))},
      {"mix.hit_share", measured[0] / completed},
      {"mix.relabel_share", measured[1] / completed},
      {"mix.fresh_share", measured[2] / completed},
      {"bench.unaccounted_pct", 100.0 * (e2e_mean - stage_mean_ms) / e2e_mean},
  };
  emit_per_layer(out, values);
  out.info("per-layer service counts are totals over the run");
  spans.write_chrome(args.work_dir + "/spans-service_mixed-seed" +
                     std::to_string(args.seed) + ".json");
}

}  // namespace perfbench
