// sdpm::api facade: JobSpec defaulting/round-trip, Session determinism.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/job_result.h"
#include "api/job_spec.h"
#include "api/session.h"
#include "disk/ladder.h"
#include "experiments/runner.h"
#include "experiments/trace_cache.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::api {
namespace {

// ---------------------------------------------------------------------------
// JobSpec: the versioned record and its defaulting rules

TEST(JobSpec, DefaultIsThePaperConfiguration) {
  const JobSpec spec;
  EXPECT_EQ(spec.version, kJobSpecSchemaVersion);
  EXPECT_EQ(spec.benchmark, "swim");
  EXPECT_TRUE(spec.schemes.empty());
  EXPECT_EQ(spec.transform, "none");
  EXPECT_EQ(spec.disks, 8);
  EXPECT_EQ(spec.stripe_size, kib(64));
  EXPECT_EQ(spec.stripe_factor, 0);
  EXPECT_EQ(spec.cache_bytes, mib(6));
  EXPECT_NO_THROW(spec.validate());
  // Empty scheme list resolves to all seven, in presentation order.
  EXPECT_EQ(spec.resolved_schemes().size(), 7u);
  EXPECT_EQ(spec.resolved_schemes().front(), experiments::Scheme::kBase);
}

TEST(JobSpec, DisplayLabelDerivesFromBenchmarkAndTransform) {
  JobSpec spec;
  spec.benchmark = "mgrid";
  spec.transform = "LF+DL";
  EXPECT_EQ(spec.display_label(), "mgrid/LF+DL");
  spec.label = "custom";
  EXPECT_EQ(spec.display_label(), "custom");
}

TEST(JobSpec, JsonRoundTripIsExact) {
  const JobSpec spec = JobSpecBuilder("applu")
                           .label("rt")
                           .scheme("CMTPM")
                           .scheme("CMDRPM")
                           .transform("TL")
                           .disks(4)
                           .stripe_size(kib(32))
                           .noise(0.1)
                           .fault_spinup(0.05)
                           .build();
  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.canonical_json(), back.canonical_json());
}

TEST(JobSpec, MissingFieldsTakeDefaults) {
  Json doc = Json::object();
  doc.set("benchmark", std::string("mesa"));
  const JobSpec spec = JobSpec::from_json(doc);
  EXPECT_EQ(spec.benchmark, "mesa");
  EXPECT_EQ(spec.disks, 8);             // default
  EXPECT_EQ(spec.transform, "none");    // default
  EXPECT_EQ(spec, JobSpecBuilder("mesa").build());
}

TEST(JobSpec, UnknownFieldsAreRejected) {
  Json doc = Json::object();
  doc.set("benchmark", std::string("swim"));
  doc.set("discs", 4);  // typo'd key must fail loudly, not mean "default"
  EXPECT_THROW(JobSpec::from_json(doc), sdpm::Error);
}

TEST(JobSpec, NewerSchemaVersionsAreRejected) {
  Json doc = Json::object();
  doc.set("version", kJobSpecSchemaVersion + 1);
  EXPECT_THROW(JobSpec::from_json(doc), sdpm::Error);
}

TEST(JobSpec, ValidateNamesTheOffendingField) {
  EXPECT_THROW(JobSpecBuilder("no-such-benchmark").build(), sdpm::Error);
  EXPECT_THROW(JobSpecBuilder("swim").scheme("WarpDrive").build(),
               sdpm::Error);
  EXPECT_THROW(JobSpecBuilder("swim").transform("UV").build(), sdpm::Error);
  EXPECT_THROW(JobSpecBuilder("swim").disks(0).build(), sdpm::Error);
}

TEST(JobSpec, TimingFieldsMustBeFinite) {
  // A JSON number past double range parses as inf: each timing field
  // refuses it, and nan, by name instead of running the job to inf energy.
  const std::pair<const char*, double JobSpec::*> fields[] = {
      {"noise_sigma", &JobSpec::noise_sigma},
      {"profile_sigma", &JobSpec::profile_sigma},
      {"power_call_overhead_ms", &JobSpec::power_call_overhead_ms},
      {"prefetch_lead_ms", &JobSpec::prefetch_lead_ms}};
  for (const auto& [name, field] : fields) {
    SCOPED_TRACE(name);
    const std::string text =
        std::string("{\"schemes\":[\"CMTPM\"],\"") + name + "\":1e999}";
    try {
      (void)JobSpec::from_json(Json::parse(text));
      ADD_FAILURE() << "no error thrown";
    } catch (const sdpm::Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    JobSpec spec = JobSpecBuilder("swim").build();
    spec.*field = std::numeric_limits<double>::quiet_NaN();
    try {
      spec.validate();
      ADD_FAILURE() << "no error thrown";
    } catch (const sdpm::Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(JobSpec, CanonicalJsonIsTheJobIdentity) {
  const JobSpec a = JobSpecBuilder("swim").scheme("Base").build();
  JobSpec b = a;
  EXPECT_EQ(a.canonical_json(), b.canonical_json());
  b.disks = 4;
  EXPECT_NE(a.canonical_json(), b.canonical_json());
}

// ---------------------------------------------------------------------------
// Schema v2: the device field (preset name or inline power ladder)

TEST(JobSpec, DeviceDefaultsToThePaperDisk) {
  const JobSpec spec;
  EXPECT_TRUE(spec.device.empty());
  EXPECT_TRUE(spec.device_inline_json.empty());
  const disk::DiskParameters resolved = spec.resolved_device();
  EXPECT_EQ(resolved.ladder().model, "IBM Ultrastar 36Z15");
  // The default shares the paper ladder with every default-built disk.
  EXPECT_EQ(&resolved.ladder(), &disk::DiskParameters().ladder());
}

TEST(JobSpec, DevicePresetRoundTrips) {
  const JobSpec spec =
      JobSpecBuilder("galgel").scheme("TPM").device("scsi_multi_idle").build();
  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(back.device, "scsi_multi_idle");
  EXPECT_EQ(spec.resolved_device().ladder().name, "scsi_multi_idle");
}

TEST(JobSpec, InlineLadderRoundTripsCanonically) {
  const disk::PowerLadder ladder = disk::PowerLadder::preset("nvme_tiered");
  const JobSpec spec =
      JobSpecBuilder("galgel").scheme("Base").device_ladder(ladder).build();
  EXPECT_TRUE(spec.device.empty());
  const Json doc = spec.to_json();
  EXPECT_TRUE(doc.at("device").is_object());
  const JobSpec back = JobSpec::from_json(doc);
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.canonical_json(), back.canonical_json());
  EXPECT_EQ(back.resolved_device().ladder(), ladder);
}

TEST(JobSpec, DeviceValidation) {
  EXPECT_THROW(JobSpecBuilder("swim").device("quantum_bigfoot").build(),
               sdpm::Error);
  JobSpec both = JobSpecBuilder("swim").device("nvme_tiered").build();
  both.device_inline_json =
      disk::PowerLadder::preset("scsi_multi_idle").to_json().dump();
  EXPECT_THROW(both.validate(), sdpm::Error);  // preset XOR inline
}

TEST(JobSpec, ToConfigCarriesTheResolvedDevice) {
  const JobSpec spec =
      JobSpecBuilder("galgel").scheme("Base").device("nvme_tiered").build();
  const experiments::ExperimentConfig config = spec.to_config();
  EXPECT_EQ(config.disk.ladder().name, "nvme_tiered");
}

TEST(JobSpec, V1DocumentsKeepParsing) {
  Json doc = Json::object();
  doc.set("version", 1).set("benchmark", std::string("mesa"));
  const JobSpec spec = JobSpec::from_json(doc);
  EXPECT_EQ(spec.version, 1);
  EXPECT_TRUE(spec.device.empty());
  EXPECT_EQ(spec.resolved_device().ladder(),
            disk::PowerLadder::preset("ultrastar_36z15"));  // the paper disk
}

// ---------------------------------------------------------------------------
// Session: the determinism contract across all three evaluation paths

TEST(Session, RunMatchesDirectRunnerBitForBit) {
  const JobSpec spec =
      JobSpecBuilder("galgel").scheme("Base").scheme("CMDRPM").build();

  Session session;
  const JobResult via_facade = session.run(spec);

  // The historical path: a Runner driven scheme by scheme.
  workloads::Benchmark bench = workloads::make_benchmark(spec.benchmark);
  experiments::Runner runner(bench, spec.to_config());
  ASSERT_EQ(via_facade.schemes.size(), 2u);
  const SchemeOutcome base =
      outcome_from(runner.run(experiments::Scheme::kBase));
  const SchemeOutcome cmdrpm =
      outcome_from(runner.run(experiments::Scheme::kCmdrpm));
  EXPECT_EQ(via_facade.schemes[0], base);
  EXPECT_EQ(via_facade.schemes[1], cmdrpm);
}

TEST(Session, BatchMatchesSerialRuns) {
  std::vector<JobSpec> specs;
  specs.push_back(JobSpecBuilder("galgel").scheme("CMTPM").build());
  specs.push_back(
      JobSpecBuilder("galgel").scheme("CMTPM").transform("TL").build());
  specs.push_back(JobSpecBuilder("mesa").scheme("Base").disks(4).build());

  Session session;
  const std::vector<JobSlot> batch = session.run_batch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(batch[i].value(), session.run(specs[i]))
        << specs[i].display_label();
  }
}

TEST(Session, BatchFailsOnlyTheJobThatThrew) {
  // A block size that passes validate() but cannot divide the 64 KB stripe
  // throws inside evaluation.  The error lands in that job's slot, the
  // other jobs complete as if run alone, and run() throws the same error.
  JobSpec bad = JobSpecBuilder("galgel").scheme("Base").build();
  bad.block_size = 64 * 1024 + 512;
  ASSERT_NO_THROW(bad.validate());
  const std::vector<JobSpec> specs = {
      JobSpecBuilder("galgel").scheme("TPM").build(), bad,
      JobSpecBuilder("galgel").scheme("DRPM").build()};

  Session session(SessionOptions{.jobs = 2});
  const std::vector<JobSlot> batch = session.run_batch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  ASSERT_TRUE(batch[1].error);
  EXPECT_FALSE(batch[1].result.has_value());
  EXPECT_NE(batch[1].error_message().find("block size must divide"),
            std::string::npos)
      << batch[1].error_message();
  for (const std::size_t i : {0u, 2u}) {
    ASSERT_FALSE(batch[i].error) << batch[i].error_message();
    EXPECT_TRUE(batch[i].error_message().empty());
    EXPECT_EQ(batch[i].value(), session.run(specs[i]));
    EXPECT_GT(batch[i].value().wall_ms, 0.0);
  }
  try {
    (void)session.run(bad);
    ADD_FAILURE() << "no error thrown";
  } catch (const sdpm::Error& e) {
    EXPECT_EQ(e.what(), batch[1].error_message());
  }
}

TEST(Session, OverflowingNoiseFailsTheJobNamingTheNest) {
  // sigma 1e308 is finite, so admission takes it, but exp() overflows a
  // nest's cycle multiplier; the job's slot carries the timeline's error.
  const JobSpec spec =
      JobSpecBuilder("swim").scheme("CMTPM").noise(1e308).build();
  Session session;
  const std::vector<JobSlot> batch = session.run_batch({spec});
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batch[0].error);
  const std::string message = batch[0].error_message();
  const std::string prefix = "timeline: nest '";
  const std::size_t at = message.find(prefix);
  ASSERT_NE(at, std::string::npos) << message;
  const std::size_t begin = at + prefix.size();
  const std::string nest =
      message.substr(begin, message.find('\'', begin) - begin);
  const workloads::Benchmark swim = workloads::make_benchmark("swim");
  bool named = false;
  for (const ir::LoopNest& n : swim.program.nests) {
    named = named || n.name == nest;
  }
  EXPECT_TRUE(named) << message;
}

TEST(Session, ResultJsonRoundTrips) {
  Session session;
  const JobResult result =
      session.run(JobSpecBuilder("galgel").scheme("TPM").build());
  const JobResult back = JobResult::from_json(result.to_json());
  EXPECT_EQ(result, back);
}

TEST(Session, RunHooksRejectOracleTraces) {
  Session session;
  obs::EventTracer tracer;
  RunHooks hooks;
  hooks.replay_tracer = &tracer;
  hooks.trace_scheme = experiments::Scheme::kItpm;
  EXPECT_THROW(
      session.run(JobSpecBuilder("galgel").scheme("ITPM").build(), hooks),
      sdpm::Error);
}

TEST(Session, RunsBothNewPresetsEndToEnd) {
  Session session;
  for (const char* preset : {"scsi_multi_idle", "nvme_tiered"}) {
    SCOPED_TRACE(preset);
    const JobSpec spec = JobSpecBuilder("galgel")
                             .scheme("Base")
                             .scheme("TPM")
                             .scheme("CMDRPM")
                             .device(preset)
                             .build();
    const JobResult result = session.run(spec);
    ASSERT_EQ(result.schemes.size(), 3u);
    for (const SchemeOutcome& outcome : result.schemes) {
      EXPECT_GT(outcome.energy_j, 0.0) << outcome.scheme;
      EXPECT_GT(outcome.execution_ms, 0.0) << outcome.scheme;
    }
    EXPECT_TRUE(result.notes.empty());  // v2 spec: no deprecation note
  }
}

TEST(Session, CertifierBoundsBracketNewPresets) {
  const Session session;
  for (const char* preset : {"scsi_multi_idle", "nvme_tiered"}) {
    SCOPED_TRACE(preset);
    const JobSpec spec =
        JobSpecBuilder("galgel").scheme("CMDRPM").device(preset).build();
    const analysis::AnalysisReport report =
        session.analyze(spec, core::PowerMode::kDrpm);
    ASSERT_TRUE(report.certificate.has_value());
    EXPECT_GE(report.certificate->energy_hi_j, report.certificate->energy_lo_j);
    EXPECT_GT(report.certificate->energy_hi_j, 0.0);
  }
}

TEST(Session, V1SpecCarriesADeprecationNote) {
  Json doc = Json::object();
  doc.set("version", 1)
      .set("benchmark", std::string("galgel"))
      .set("schemes", Json::array().push_back(Json(std::string("Base"))));
  const JobSpec v1 = JobSpec::from_json(doc);
  Session session;
  const JobResult result = session.run(v1);
  ASSERT_EQ(result.notes.size(), 1u);
  EXPECT_EQ(result.notes.front().rfind("deprecation:", 0), 0u);

  // The note survives the wire round trip but never breaks equality.
  const JobResult back = JobResult::from_json(result.to_json());
  EXPECT_EQ(back.notes, result.notes);
  JobResult stripped = result;
  stripped.notes.clear();
  EXPECT_EQ(stripped, result);

  // The same job under a v2 spec carries no note.
  const JobResult v2 =
      session.run(JobSpecBuilder("galgel").scheme("Base").build());
  EXPECT_TRUE(v2.notes.empty());
  EXPECT_EQ(v2, result);  // and the simulated outcome is unchanged
}

TEST(Session, AnalyzeIsCleanOnSchedulerOutputAndDirtyOnMutation) {
  const Session session;
  const JobSpec spec = JobSpecBuilder("swim").build();
  const analysis::AnalysisReport clean =
      session.analyze(spec, core::PowerMode::kDrpm);
  EXPECT_EQ(clean.errors(), 0) << render_text(clean);

  const analysis::AnalysisReport dirty = session.analyze(
      spec, core::PowerMode::kDrpm, analysis::Mutation::kLatePreactivation);
  EXPECT_GT(dirty.errors(), 0);
  EXPECT_TRUE(dirty.has("SDPM-E040")) << render_text(dirty);
}

// ---------------------------------------------------------------------------
// One access walk per job: the Base trace, both schedules' DAPs, the
// analyzer's DAP, the certificate's trace and the CMDRPM trace all read the
// same miss stream, so a cold job walks it once.

template <typename Job>
std::int64_t access_walks_of(const Job& job) {
  experiments::TraceCache::global().clear();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const std::int64_t before = metrics.snapshot().counter("trace.walks_run");
  job();
  return metrics.snapshot().counter("trace.walks_run") - before;
}

TEST(Session, SevenSchemeRunWalksOnce) {
  Session session;
  for (const std::string& name : workloads::benchmark_names()) {
    const JobSpec spec = JobSpecBuilder(name).build();
    EXPECT_EQ(access_walks_of([&] { session.run(spec); }), 1) << name;
  }
}

TEST(Session, AnalyzeWalksOnce) {
  const Session session;
  for (const std::string& name : workloads::benchmark_names()) {
    const JobSpec spec = JobSpecBuilder(name).build();
    EXPECT_EQ(access_walks_of([&] {
                session.analyze(spec, core::PowerMode::kDrpm);
              }),
              1)
        << name;
  }
}

TEST(Session, RepairWalksOncePerLayout) {
  // short-gap is repaired by dropping spin-down/spin-up pairs (SDPM-F002),
  // so no round restripes and every round reuses the one walk.
  const Session session;
  for (const std::string& name : workloads::benchmark_names()) {
    const JobSpec spec = JobSpecBuilder(name).build();
    EXPECT_EQ(access_walks_of([&] {
                session.repair(spec, core::PowerMode::kTpm,
                               analysis::Mutation::kShortGapSpinDown);
              }),
              1)
        << name;
  }
}

}  // namespace
}  // namespace sdpm::api
