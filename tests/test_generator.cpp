// TraceGenerator: request stream correctness.
#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.h"
#include "layout/layout_table.h"
#include "trace/generator.h"
#include "util/error.h"

namespace sdpm::trace {
namespace {

using ir::ProgramBuilder;
using ir::sym;

// One array of 16 blocks (64 KB stripe units) over 4 disks, swept twice.
ir::Program sweep_twice_program() {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {16 * 8192});  // 1 MB of doubles
  pb.nest("s1").loop("i", 0, 16 * 8192).stmt(100.0).read(u, {sym("i")}).done();
  pb.nest("s2").loop("i", 0, 16 * 8192).stmt(100.0).read(u, {sym("i")}).done();
  return pb.build();
}

GeneratorOptions no_cache() {
  GeneratorOptions o;
  o.cache_bytes = 0;
  return o;
}

TEST(Generator, RequestCountEqualsBlockTouches) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  EXPECT_EQ(trace.request_count(), 32);  // 16 blocks x 2 sweeps
  EXPECT_EQ(trace.bytes_transferred, 2 * mib(1));
}

TEST(Generator, CacheAbsorbsSecondSweepWhenItFits) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions o;
  o.cache_bytes = mib(2);  // whole array fits
  TraceGenerator gen(p, table, o);
  EXPECT_EQ(gen.generate().request_count(), 16);
}

TEST(Generator, ArrivalsAreMonotone) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  TimeMs prev = -1;
  for (const Request& r : trace.requests) {
    EXPECT_GE(r.arrival_ms, prev);
    prev = r.arrival_ms;
  }
  EXPECT_GE(trace.compute_total_ms, prev);
}

TEST(Generator, RoundRobinDiskAssignment) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  for (int k = 0; k < 16; ++k) {
    EXPECT_EQ(trace.requests[static_cast<std::size_t>(k)].disk, k % 4);
  }
}

TEST(Generator, WritesCarryWriteKind) {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {8192});
  pb.nest("n").loop("i", 0, 8192).stmt(1.0).write(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 1, kib(64)}, 1);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  ASSERT_EQ(trace.request_count(), 1);
  EXPECT_EQ(trace.requests[0].kind, ir::AccessKind::kWrite);
}

TEST(Generator, LastPartialBlockIsShorter) {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {12'000});  // 96'000 B = 1.46 blocks
  pb.nest("n").loop("i", 0, 12'000).stmt(1.0).read(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 2, kib(64)}, 2);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  ASSERT_EQ(trace.request_count(), 2);
  EXPECT_EQ(trace.requests[0].size_bytes, kib(64));
  EXPECT_EQ(trace.requests[1].size_bytes, 96'000 - kib(64));
  EXPECT_EQ(trace.bytes_transferred, 96'000);
}

TEST(Generator, ExplicitBlockSizeMustDivideStripe) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions o = no_cache();
  o.block_size = kib(48);  // does not divide 64 KB
  TraceGenerator gen(p, table, o);
  EXPECT_THROW(gen.generate(), Error);
}

TEST(Generator, SmallerBlocksMeanMoreRequests) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions o = no_cache();
  o.block_size = kib(16);
  TraceGenerator gen(p, table, o);
  EXPECT_EQ(gen.generate().request_count(), 128);  // 64 blocks x 2 sweeps
}

TEST(Generator, DirectiveOverheadShiftsLaterArrivals) {
  ir::Program p = sweep_twice_program();
  p.directives.push_back(
      {ir::IterationPoint{0, 0},
       ir::PowerDirective{ir::PowerDirective::Kind::kSpinDown, 3, 0}});
  p.sort_directives();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);

  GeneratorOptions o = no_cache();
  o.power_call_overhead_ms = 5.0;
  TraceGenerator with_call(p, table, o);
  const Trace t1 = with_call.generate();

  ir::Program p2 = sweep_twice_program();
  TraceGenerator without_call(p2, table, no_cache());
  const Trace t2 = without_call.generate();

  ASSERT_EQ(t1.request_count(), t2.request_count());
  EXPECT_NEAR(t1.requests[0].arrival_ms - t2.requests[0].arrival_ms, 5.0,
              1e-9);
  EXPECT_NEAR(t1.compute_total_ms - t2.compute_total_ms, 5.0, 1e-9);
  ASSERT_EQ(t1.power_events.size(), 1u);
  EXPECT_EQ(t1.power_events[0].directive.disk, 3);
}

TEST(Generator, CollectMissesMatchesTraceRequests) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  const GeneratorOptions o = no_cache();
  const auto walked = collect_misses(p, table, o);
  const std::vector<MissRecord>& misses = *walked;
  TraceGenerator gen(p, table, o);
  const Trace trace = gen.generate();
  ASSERT_EQ(misses.size(), trace.requests.size());
  for (std::size_t i = 0; i < misses.size(); ++i) {
    EXPECT_EQ(misses[i].disk, trace.requests[i].disk);
    EXPECT_EQ(misses[i].start_sector, trace.requests[i].start_sector);
    EXPECT_EQ(misses[i].global_iter, trace.requests[i].global_iter);
  }
}

TEST(Trace, WriteTextFormat) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  std::ostringstream os;
  trace.write_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# arrival_ms disk start_sector size_bytes type"),
            std::string::npos);
  EXPECT_NE(text.find(" R\n"), std::string::npos);
}

}  // namespace
}  // namespace sdpm::trace
