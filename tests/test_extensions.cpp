// Extensions beyond the paper: adaptive-threshold TPM, the PDC layout
// baseline, open-loop trace replay, and trace text round-tripping.
#include <gtest/gtest.h>

#include <sstream>

#include "core/pdc.h"
#include "ir/builder.h"
#include "layout/layout_table.h"
#include "policy/adaptive_tpm.h"
#include "policy/base.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/text_io.h"
#include "util/error.h"

namespace sdpm {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Request make_request(TimeMs arrival, int disk, BlockNo sector,
                            Bytes size) {
  trace::Request r;
  r.arrival_ms = arrival;
  r.disk = disk;
  r.start_sector = sector;
  r.size_bytes = size;
  return r;
}

// ---- adaptive TPM -----------------------------------------------------------

TEST(AdaptiveTpm, SpinsDownOnLongGaps) {
  trace::Trace t;
  t.total_disks = 1;
  t.requests.push_back(make_request(0.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(60'000.0, 0, 1'000'000, kib(64)));
  t.compute_total_ms = 61'000.0;
  policy::AdaptiveTpmPolicy policy;
  const sim::SimReport report = sim::simulate(t, params(), policy);
  EXPECT_EQ(report.disks[0].spin_downs, 1);
}

TEST(AdaptiveTpm, ThresholdGrowsAfterPrematureWake) {
  // Gaps just above the initial threshold but below break-even: each
  // spin-down is judged premature and the threshold doubles.
  trace::Trace t;
  t.total_disks = 1;
  for (int i = 0; i < 6; ++i) {
    t.requests.push_back(
        make_request(i * 3'000.0, 0, i * 1'000'000, kib(64)));
  }
  t.compute_total_ms = 20'000.0;
  policy::AdaptiveTpmPolicy policy(
      policy::AdaptiveTpmOptions{2'000.0, 500.0, 120'000.0, 2.0});
  sim::simulate(t, params(), policy);
  EXPECT_GT(policy.threshold_of(0), 2'000.0);
}

TEST(AdaptiveTpm, ThresholdShrinksAfterProfitableStandby) {
  trace::Trace t;
  t.total_disks = 1;
  t.requests.push_back(make_request(0.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(200'000.0, 0, 1'000'000, kib(64)));
  t.compute_total_ms = 201'000.0;
  policy::AdaptiveTpmPolicy policy(
      policy::AdaptiveTpmOptions{20'000.0, 1'000.0, 120'000.0, 2.0});
  sim::simulate(t, params(), policy);
  EXPECT_LT(policy.threshold_of(0), 20'000.0);
}

TEST(AdaptiveTpm, ThresholdRespectsBounds) {
  trace::Trace t;
  t.total_disks = 1;
  for (int i = 0; i < 20; ++i) {
    t.requests.push_back(
        make_request(i * 2'500.0, 0, i * 1'000'000, kib(64)));
  }
  t.compute_total_ms = 60'000.0;
  policy::AdaptiveTpmPolicy policy(
      policy::AdaptiveTpmOptions{2'000.0, 1'000.0, 4'000.0, 2.0});
  sim::simulate(t, params(), policy);
  EXPECT_LE(policy.threshold_of(0), 4'000.0);
  EXPECT_GE(policy.threshold_of(0), 1'000.0);
}

TEST(AdaptiveTpm, RejectsBadAdjustFactor) {
  trace::Trace t;
  t.total_disks = 1;
  t.compute_total_ms = 1'000.0;
  policy::AdaptiveTpmPolicy policy(
      policy::AdaptiveTpmOptions{-1.0, 1'000.0, 2'000.0, 1.0});
  EXPECT_THROW(sim::simulate(t, params(), policy), Error);
}

// ---- PDC --------------------------------------------------------------------

ir::Program skewed_program() {
  // HOT is swept 8x, COLD once: PDC should pack HOT tightly and push COLD
  // behind it.
  ir::ProgramBuilder pb("skewed");
  const ir::ArrayId hot = pb.array("HOT", {16 * 8192});
  const ir::ArrayId cold = pb.array("COLD", {16 * 8192});
  for (int k = 0; k < 8; ++k) {
    pb.nest("hot" + std::to_string(k))
        .loop("i", 0, 16 * 8192)
        .stmt(100.0)
        .read(hot, {ir::sym("i")})
        .done();
  }
  pb.nest("cold").loop("i", 0, 16 * 8192).stmt(100.0).read(
      cold, {ir::sym("i")}).done();
  return pb.build();
}

TEST(Pdc, PopularityOrderByRequests) {
  core::PdcOptions options;
  options.total_disks = 4;
  options.access.cache_bytes = 0;
  const core::PdcResult result = core::apply_pdc(skewed_program(), options);
  ASSERT_EQ(result.popularity_order.size(), 2u);
  EXPECT_EQ(result.popularity_order[0], 0);  // HOT first
}

TEST(Pdc, LoadConcentratesOnPrefix) {
  core::PdcOptions options;
  options.total_disks = 8;
  options.access.cache_bytes = 0;
  const core::PdcResult result = core::apply_pdc(skewed_program(), options);
  // Loads never increase along the disk order.
  for (std::size_t d = 1; d < result.projected_load.size(); ++d) {
    EXPECT_LE(result.projected_load[d], result.projected_load[d - 1] + 1e-9);
  }
  EXPECT_GT(result.unused_disks, 0);
}

TEST(Pdc, StripingStaysWithinDiskRange) {
  core::PdcOptions options;
  options.total_disks = 8;
  options.access.cache_bytes = 0;
  const core::PdcResult result = core::apply_pdc(skewed_program(), options);
  for (const layout::Striping& s : result.striping) {
    EXPECT_GE(s.starting_disk, 0);
    EXPECT_LE(s.starting_disk + s.stripe_factor, 8);
  }
  // The result is a valid layout.
  const layout::LayoutTable table(skewed_program(), result.striping, 8);
  EXPECT_EQ(table.array_count(), 2u);
}

TEST(Pdc, UniformLoadSpreadsEvenly) {
  // With headroom 1.0 and two equally hot arrays, no disk may exceed the
  // fair share: the layout degenerates toward plain striping.
  ir::ProgramBuilder pb("uniform");
  const ir::ArrayId a = pb.array("A", {16 * 8192});
  const ir::ArrayId b = pb.array("B", {16 * 8192});
  pb.nest("n")
      .loop("i", 0, 16 * 8192)
      .stmt(1.0)
      .read(a, {ir::sym("i")})
      .read(b, {ir::sym("i")})
      .done();
  core::PdcOptions options;
  options.total_disks = 4;
  options.load_headroom = 1.0;
  options.access.cache_bytes = 0;
  const core::PdcResult result = core::apply_pdc(pb.build(), options);
  EXPECT_EQ(result.unused_disks, 0);
}

TEST(Pdc, RejectsBadHeadroom) {
  core::PdcOptions options;
  options.load_headroom = 0.5;
  EXPECT_THROW(core::apply_pdc(skewed_program(), options), Error);
}

// ---- open-loop replay -------------------------------------------------------

TEST(OpenLoop, OverlappingArrivalsQueuePerDisk) {
  trace::Trace t;
  t.total_disks = 1;
  t.requests.push_back(make_request(0.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(1.0, 0, 1'000'000, kib(64)));
  t.compute_total_ms = 2.0;
  policy::BasePolicy policy;
  const sim::SimReport report = sim::simulate(
      t, params(), policy,
      sim::SimOptions{.mode = sim::ReplayMode::kOpenLoop,
                      .capture_responses = true});
  const TimeMs service = params().service_time(kib(64), 10, false);
  // Second request waits behind the first.
  EXPECT_NEAR(report.responses[1], (service - 1.0) + service, 1e-9);
}

TEST(OpenLoop, IndependentDisksOverlapInTime) {
  trace::Trace t;
  t.total_disks = 2;
  t.requests.push_back(make_request(0.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(0.0, 1, 0, kib(64)));
  t.compute_total_ms = 0.0;
  policy::BasePolicy open_policy;
  const sim::SimReport open =
      sim::simulate(t, params(), open_policy,
                    sim::SimOptions{.mode = sim::ReplayMode::kOpenLoop});
  policy::BasePolicy closed_policy;
  const sim::SimReport closed = sim::simulate(t, params(), closed_policy);
  // Open loop: both disks serve concurrently -> completion is one service
  // time; closed loop serializes the blocking application.
  EXPECT_LT(open.execution_ms, closed.execution_ms - 1.0);
}

TEST(OpenLoop, EnergyAccountingStillExhaustive) {
  trace::Trace t;
  t.total_disks = 2;
  t.requests.push_back(make_request(5.0, 0, 0, kib(64)));
  t.requests.push_back(make_request(5.0, 1, 0, kib(64)));
  t.compute_total_ms = 100.0;
  policy::BasePolicy policy;
  const sim::SimReport report =
      sim::simulate(t, params(), policy,
                    sim::SimOptions{.mode = sim::ReplayMode::kOpenLoop});
  for (const auto& d : report.disks) {
    EXPECT_NEAR(d.breakdown.total_ms(), report.execution_ms, 1e-6);
  }
}

// ---- trace text I/O --------------------------------------------------------

TEST(TraceTextIo, RoundTripsExactly) {
  ir::ProgramBuilder pb("p");
  const ir::ArrayId u = pb.array("U", {8 * 8192});
  pb.nest("r").loop("i", 0, 8 * 8192).stmt(50.0).read(u, {ir::sym("i")})
      .done();
  pb.nest("w").loop("i", 0, 8 * 8192).stmt(50.0).write(u, {ir::sym("i")})
      .done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  trace::GeneratorOptions gen;
  gen.cache_bytes = 0;
  trace::TraceGenerator generator(p, table, gen);
  const trace::Trace original = generator.generate();

  std::stringstream buffer;
  trace::write_trace_text(original, buffer);
  const trace::Trace parsed = trace::read_trace_text(buffer);

  EXPECT_EQ(parsed.total_disks, original.total_disks);
  EXPECT_NEAR(parsed.compute_total_ms, original.compute_total_ms, 1e-6);
  ASSERT_EQ(parsed.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < parsed.requests.size(); ++i) {
    EXPECT_EQ(parsed.requests[i].disk, original.requests[i].disk);
    EXPECT_EQ(parsed.requests[i].start_sector,
              original.requests[i].start_sector);
    EXPECT_EQ(parsed.requests[i].size_bytes,
              original.requests[i].size_bytes);
    EXPECT_EQ(parsed.requests[i].kind, original.requests[i].kind);
    EXPECT_NEAR(parsed.requests[i].arrival_ms,
                original.requests[i].arrival_ms, 1e-6);
  }
}

TEST(TraceTextIo, HeaderlessFileInfersShape) {
  std::stringstream buffer;
  buffer << "1.5 0 100 65536 R\n2.5 3 200 4096 W\n";
  const trace::Trace parsed = trace::read_trace_text(buffer);
  EXPECT_EQ(parsed.total_disks, 4);
  ASSERT_EQ(parsed.requests.size(), 2u);
  EXPECT_EQ(parsed.requests[1].kind, ir::AccessKind::kWrite);
  EXPECT_NEAR(parsed.compute_total_ms, 2.5, 1e-9);
}

TEST(TraceTextIo, MalformedLinesRejected) {
  {
    std::stringstream buffer;
    buffer << "not a trace line\n";
    EXPECT_THROW(trace::read_trace_text(buffer), Error);
  }
  {
    std::stringstream buffer;
    buffer << "1.0 0 0 65536 X\n";  // unknown type
    EXPECT_THROW(trace::read_trace_text(buffer), Error);
  }
  {
    std::stringstream buffer;
    buffer << "2.0 0 0 65536 R\n1.0 0 0 65536 R\n";  // unsorted
    EXPECT_THROW(trace::read_trace_text(buffer), Error);
  }
}

TEST(TraceTextIo, ParsedTraceReplaysOpenLoop) {
  std::stringstream buffer;
  buffer << "# sdpm-trace v1 disks=2 compute_ms=50\n";
  buffer << "0.0 0 0 65536 R\n10.0 1 0 65536 R\n";
  const trace::Trace parsed = trace::read_trace_text(buffer);
  policy::BasePolicy policy;
  const sim::SimReport report =
      sim::simulate(parsed, params(), policy,
                    sim::SimOptions{.mode = sim::ReplayMode::kOpenLoop});
  EXPECT_EQ(report.requests, 2);
  EXPECT_NEAR(report.execution_ms, 50.0, 1e-9);
}

}  // namespace
}  // namespace sdpm
