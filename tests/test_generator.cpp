// TraceGenerator: request stream correctness.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/runner.h"
#include "ir/builder.h"
#include "layout/layout_table.h"
#include "obs/metrics.h"
#include "reference_lru.h"
#include "trace/generator.h"
#include "trace/text_io.h"
#include "trace_bits.h"
#include "util/error.h"
#include "workloads/benchmarks.h"
#include "workloads/synthetic.h"

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

// --- add_directives: a scheduled program's trace from its Base trace -----

/// sweep_twice_program plus directives at iteration 0, one past nest s1's
/// last iteration (16 * 8192), twice at one point in s2, and at s2's end.
ir::Program with_directives(ir::Program p) {
  const auto place = [&p](int nest, std::int64_t flat,
                          ir::PowerDirective::Kind kind, int disk) {
    p.directives.push_back(
        ir::PlacedDirective{{nest, flat}, ir::PowerDirective{kind, disk, 0}});
  };
  place(0, 0, ir::PowerDirective::Kind::kSpinDown, 1);
  place(0, 16 * 8192, ir::PowerDirective::Kind::kSpinUp, 1);
  place(1, 40'000, ir::PowerDirective::Kind::kSpinDown, 2);
  place(1, 40'000, ir::PowerDirective::Kind::kSpinDown, 3);
  place(1, 16 * 8192, ir::PowerDirective::Kind::kSpinUp, 2);
  p.sort_directives();
  return p;
}

/// The text of the sdpm::Error `f` throws ("" when it throws none).
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(AddDirectives, EqualsTheGeneratorsTrace) {
  const ir::Program base_program = sweep_twice_program();
  const ir::Program scheduled = with_directives(base_program);
  const layout::LayoutTable table(base_program,
                                  layout::Striping{0, 4, kib(64)}, 4);
  struct Case {
    const char* label;
    TimeMs tm;
    TimeMs prefetch_lead_ms;
    CycleNoise noise;
  };
  for (const Case& c : {
           Case{"paper Tm, sigma 0", 0.02, 0, CycleNoise::none()},
           Case{"Tm 0", 0, 0, CycleNoise{0.2, 7}},
           Case{"prefetch lead", 0.02, 1.5, CycleNoise{0.2, 7}},
           Case{"large Tm, noise", 3.7, 0, CycleNoise{0.35, 11}},
       }) {
    GeneratorOptions options = no_cache();
    options.power_call_overhead_ms = c.tm;
    options.prefetch_lead_ms = c.prefetch_lead_ms;
    options.noise = c.noise;
    const Trace base = TraceGenerator(base_program, table, options).generate();
    const Trace generated =
        TraceGenerator(scheduled, table, options).generate();
    ASSERT_EQ(generated.power_events.size(), 5u) << c.label;
    EXPECT_EQ(test::first_difference(
                  add_directives(base, scheduled, options), generated),
              "")
        << c.label;
  }
}

TEST(AddDirectives, RejectsABaseTraceWithPowerEvents) {
  const ir::Program scheduled = with_directives(sweep_twice_program());
  const layout::LayoutTable table(scheduled, layout::Striping{0, 4, kib(64)},
                                  4);
  const Trace generated =
      TraceGenerator(scheduled, table, no_cache()).generate();
  const std::string error =
      error_of([&] { add_directives(generated, scheduled, no_cache()); });
  EXPECT_NE(error.find("add_directives: the base trace carries 5 power "
                       "events"),
            std::string::npos)
      << error;
}

TEST(AddDirectives, RejectsABaseTraceOfAnotherNoiseSeed) {
  const ir::Program base_program = sweep_twice_program();
  const ir::Program scheduled = with_directives(base_program);
  const layout::LayoutTable table(base_program,
                                  layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions options = no_cache();
  options.noise = CycleNoise{0.2, 1};
  const Trace base = TraceGenerator(base_program, table, options).generate();
  options.noise.seed = 2;
  const std::string error =
      error_of([&] { add_directives(base, scheduled, options); });
  EXPECT_NE(error.find("add_directives: the base trace's compute total"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("program 'p'"), std::string::npos) << error;
}

TEST(AddDirectives, KeepsTheGeneratorsProgramChecks) {
  const ir::Program base_program = sweep_twice_program();
  const layout::LayoutTable table(base_program,
                                  layout::Striping{0, 4, kib(64)}, 4);
  const Trace base =
      TraceGenerator(base_program, table, no_cache()).generate();
  ir::Program unsorted = with_directives(base_program);
  std::swap(unsorted.directives.front(), unsorted.directives.back());
  EXPECT_NE(error_of([&] { add_directives(base, unsorted, no_cache()); })
                .find("program directives must be sorted"),
            std::string::npos);
  ir::Program past_the_end = with_directives(base_program);
  past_the_end.directives.back().point.flat_iteration = 16 * 8192 + 1;
  EXPECT_NE(error_of([&] { add_directives(base, past_the_end, no_cache()); })
                .find("directive iteration out of range in nest 's2'"),
            std::string::npos);
}

// --- WalkSkip: the skipping walk against the touch-by-touch walk ---------

/// The miss stream of a walk that enumerates every touch: a TouchCursor
/// without a cache capacity feeding the reference LRU, record for record
/// the walk MissCursor made before it skipped sweeps.
std::vector<MissRecord> full_walk(const ir::Program& program,
                                  const layout::LayoutTable& layout,
                                  const GeneratorOptions& options) {
  const IterationSpace space(program);
  test::ReferenceLru cache(options.cache_bytes);
  TouchCursor cursor(program, [&](ir::ArrayId a) {
    return block_size_for(layout, a, options);
  });
  std::vector<MissRecord> misses;
  BlockTouch touch;
  while (cursor.next(touch)) {
    const Bytes bs = block_size_for(layout, touch.array, options);
    const Bytes begin = touch.block * bs;
    const Bytes length =
        std::min(bs, layout.layout_of(touch.array).file_size() - begin);
    if (cache.access(touch.array, touch.block, length)) continue;
    const layout::PhysicalLocation loc = layout.locate(touch.array, begin);
    MissRecord miss;
    miss.global_iter =
        space.global_of(ir::IterationPoint{touch.nest, touch.flat_iter});
    miss.disk = loc.disk;
    miss.start_sector = loc.sector();
    miss.size_bytes = length;
    miss.kind = touch.kind;
    miss.array = touch.array;
    miss.block = touch.block;
    misses.push_back(miss);
  }
  return misses;
}

struct SkippingWalk {
  std::vector<MissRecord> misses;
  std::int64_t sweeps_skipped = 0;
  std::int64_t sweeps_pinned = 0;
  std::int64_t nests_replayed = 0;
};

/// The product walk, straight from MissCursor (no memo involved).
SkippingWalk skipping_walk(const ir::Program& program,
                           const layout::LayoutTable& layout,
                           const GeneratorOptions& options) {
  MissCursor cursor(program, layout, options);
  SkippingWalk walk;
  cursor.walk(walk.misses);
  walk.sweeps_skipped = cursor.sweeps_skipped();
  walk.sweeps_pinned = cursor.sweeps_pinned();
  walk.nests_replayed = cursor.nests_replayed();
  return walk;
}

/// Check the skipping walk against the full walk record for record;
/// returns the skipping walk.
SkippingWalk expect_same_misses(const ir::Program& program,
                                const layout::LayoutTable& layout,
                                const GeneratorOptions& options,
                                const std::string& label) {
  const std::vector<MissRecord> full = full_walk(program, layout, options);
  SkippingWalk walk = skipping_walk(program, layout, options);
  EXPECT_EQ(walk.misses.size(), full.size()) << label;
  const std::size_t n = std::min(walk.misses.size(), full.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (walk.misses[i] == full[i]) continue;
    ADD_FAILURE() << label << ": first differing miss #" << i
                  << ": skipping walk (array " << walk.misses[i].array
                  << ", block " << walk.misses[i].block << ", iter "
                  << walk.misses[i].global_iter << "), full walk (array "
                  << full[i].array << ", block " << full[i].block
                  << ", iter " << full[i].global_iter << ")";
    break;
  }
  return walk;
}

layout::LayoutTable paper_layout(const ir::Program& program) {
  const experiments::ExperimentConfig paper;
  return layout::LayoutTable(program, paper.striping, paper.total_disks);
}

TEST(WalkSkip, PaperBenchmarksMatchTheFullWalk) {
  // Sweeps skipped and pinned and nests replayed per walk at paper
  // defaults (64 KiB blocks, 6 MiB cache) are pinned, so a change that
  // narrows any of them fails here.  A replayed nest's sweeps count as its
  // twin's, so replay leaves the sweep counts as they were.
  const std::map<std::string, std::int64_t> expected_skips = {
      {"wupwise", 26'673}, {"swim", 5'535}, {"mgrid", 27'776},
      {"applu", 10'952},   {"mesa", 9'344}, {"galgel", 7'168}};
  const std::map<std::string, std::int64_t> expected_pins = {
      {"wupwise", 7'676}, {"swim", 0}, {"mgrid", 0},
      {"applu", 32},      {"mesa", 248}, {"galgel", 0}};
  const std::map<std::string, std::int64_t> expected_replays = {
      {"wupwise", 7}, {"swim", 0}, {"mgrid", 27},
      {"applu", 28},  {"mesa", 0}, {"galgel", 5}};
  const experiments::ExperimentConfig paper;
  for (const workloads::Benchmark& b : workloads::all_benchmarks()) {
    const layout::LayoutTable table = paper_layout(b.program);
    const SkippingWalk walk =
        expect_same_misses(b.program, table, paper.gen, b.name);
    EXPECT_EQ(walk.sweeps_skipped, expected_skips.at(b.name)) << b.name;
    EXPECT_EQ(walk.sweeps_pinned, expected_pins.at(b.name)) << b.name;
    EXPECT_EQ(walk.nests_replayed, expected_replays.at(b.name)) << b.name;
  }
  const workloads::Benchmark swim = workloads::make_swim();
  GeneratorOptions small_blocks = paper.gen;
  small_blocks.block_size = kib(8);
  const SkippingWalk walk =
      expect_same_misses(swim.program, paper_layout(swim.program),
                         small_blocks, "swim, 8 KiB blocks");
  EXPECT_GT(walk.sweeps_skipped, 0);
}

TEST(WalkSkip, CollectMissesCountsSkippedSweeps) {
  const workloads::Benchmark galgel = workloads::make_galgel();
  const workloads::Benchmark wupwise = workloads::make_wupwise();
  const GeneratorOptions options = experiments::ExperimentConfig{}.gen;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  clear_access_memo();
  const obs::MetricsRegistry::Snapshot before = metrics.snapshot();
  const layout::LayoutTable galgel_table = paper_layout(galgel.program);
  collect_misses(galgel.program, galgel_table, options);
  collect_misses(galgel.program, galgel_table, options);  // memo hit
  const obs::MetricsRegistry::Snapshot after_galgel = metrics.snapshot();
  EXPECT_EQ(after_galgel.counter("trace.walks_run") -
                before.counter("trace.walks_run"),
            1);
  EXPECT_EQ(after_galgel.counter("trace.sweeps_skipped") -
                before.counter("trace.sweeps_skipped"),
            7'168);
  EXPECT_EQ(after_galgel.counter("trace.sweeps_pinned") -
                before.counter("trace.sweeps_pinned"),
            0);
  collect_misses(wupwise.program, paper_layout(wupwise.program), options);
  const obs::MetricsRegistry::Snapshot after = metrics.snapshot();
  EXPECT_EQ(after.counter("trace.sweeps_pinned") -
                after_galgel.counter("trace.sweeps_pinned"),
            7'676);
}

/// Nests A B A B A B C: A reads U and B writes V, each sweeping its
/// array's `blocks` 64 KiB blocks twice, so every nest has a footprint of
/// `blocks` blocks.  C reads V's last block, which the last B leaves
/// resident in any cache of one block or more: a replayed B must leave
/// the cache as its twin did.
ir::Program alternating_program(std::int64_t blocks) {
  ProgramBuilder pb("alternating");
  const auto u = pb.array("U", {blocks * 8192});
  const auto v = pb.array("V", {blocks * 8192});
  for (int rep = 0; rep < 3; ++rep) {
    pb.nest("a")
        .loop("t", 0, 2)
        .loop("i", 0, blocks * 8192)
        .stmt(1.0)
        .read(u, {sym("i")})
        .done();
    pb.nest("b")
        .loop("t", 0, 2)
        .loop("i", 0, blocks * 8192)
        .stmt(1.0)
        .write(v, {sym("i")})
        .done();
  }
  pb.nest("c")
      .loop("i", 0, 1)
      .stmt(1.0)
      .read(v, {ir::sym_const((blocks - 1) * 8192)})
      .done();
  return pb.build();
}

/// Nests P A B Q A B over 64 KiB blocks: P reads V's two blocks, A reads
/// U's block 0, B reads V again and Q reads W's five blocks.  Under a
/// four-block cache the first B hits on every block P left, while Q
/// evicts V before the second B.  Neither A evicts a block of its own, so
/// the second pair A B is no replay of the first: its B misses.
ir::Program unreset_pair_program() {
  ProgramBuilder pb("unreset");
  const auto u = pb.array("U", {2 * 8192});
  const auto v = pb.array("V", {2 * 8192});
  const auto w = pb.array("W", {5 * 8192});
  const auto sweep = [&pb](const char* name, ir::ArrayId array,
                           std::int64_t elements) {
    pb.nest(name)
        .loop("i", 0, elements)
        .stmt(1.0)
        .read(array, {sym("i")})
        .done();
  };
  sweep("p", v, 2 * 8192);
  sweep("a", u, 8192);
  sweep("b", v, 2 * 8192);
  sweep("q", w, 5 * 8192);
  sweep("a", u, 8192);
  sweep("b", v, 2 * 8192);
  return pb.build();
}

TEST(WalkSkip, SyntheticProgramsMatchTheFullWalk) {
  // test_fuzz's seeds and layout, across block sizes and cache capacities.
  std::int64_t pinned_under_pressure = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                   89u}) {
    workloads::SyntheticOptions synthetic;
    synthetic.seed = seed;
    const ir::Program program = workloads::make_synthetic(synthetic);
    const layout::LayoutTable table(program, layout::Striping{0, 4, kib(64)},
                                    4);
    for (const Bytes block : {kib(8), kib(64)}) {
      for (const Bytes capacity : {Bytes{0}, kib(64), kib(512), mib(6)}) {
        GeneratorOptions options;
        options.block_size = block;
        options.cache_bytes = capacity;
        const std::string label = "seed " + std::to_string(seed) +
                                  ", block " + std::to_string(block) +
                                  ", cache " + std::to_string(capacity);
        const SkippingWalk walk =
            expect_same_misses(program, table, options, label);
        // Without a cache nothing is skipped; with the paper's cache the
        // skip fires on every program, so the comparison is not vacuous.
        if (capacity == 0) {
          EXPECT_EQ(walk.sweeps_skipped, 0) << label;
          EXPECT_EQ(walk.sweeps_pinned, 0) << label;
        } else if (capacity == mib(6)) {
          EXPECT_GT(walk.sweeps_skipped, 0) << label;
        } else {
          pinned_under_pressure += walk.sweeps_pinned;
        }
      }
    }
  }
  // The pinned rule also fires where the cache evicts, so the comparison
  // covers its LRU argument under eviction pressure.
  EXPECT_GT(pinned_under_pressure, 0);

  // Programs that repeat nest shapes, so nest replay fires or must not.
  const ir::Program alternating = alternating_program(4);
  const layout::LayoutTable table(alternating,
                                  layout::Striping{0, 4, kib(64)}, 4);
  struct Case {
    const char* label;
    Bytes capacity;
    std::int64_t replays;
  };
  for (const Case& c : {
           // Each nest's 4 blocks fit: no nest evicts its own block.
           Case{"footprint one block inside", 5 * kib(64), 0},
           // Every nest evicts its own: nests 3-5 replay, and C follows
           // a replayed B.
           Case{"footprint one block outside", 3 * kib(64), 3},
           Case{"block larger than the capacity", kib(32), 3},
           Case{"zero capacity", 0, 3},
       }) {
    GeneratorOptions options;
    options.cache_bytes = c.capacity;
    const SkippingWalk walk =
        expect_same_misses(alternating, table, options, c.label);
    EXPECT_EQ(walk.nests_replayed, c.replays) << c.label;
  }

  const ir::Program unreset = unreset_pair_program();
  GeneratorOptions options;
  options.cache_bytes = 4 * kib(64);
  const SkippingWalk walk = expect_same_misses(
      unreset, layout::LayoutTable(unreset, layout::Striping{0, 4, kib(64)}, 4),
      options, "unreset pair");
  EXPECT_EQ(walk.nests_replayed, 0);
  // P 2 + A 1 + B 0 + Q 5 + A 1 + B 2.
  EXPECT_EQ(walk.misses.size(), 11u);
}

/// `sweeps` sweeps of one reference over a 2-block (128 KiB) array plus
/// one over a 1-block array: each sweep's footprint is exactly 3 blocks.
ir::Program footprint_program(std::int64_t sweeps) {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {2 * 8192});
  const auto v = pb.array("V", {8192});
  pb.nest("n")
      .loop("t", 0, sweeps)
      .loop("i", 0, 2 * 8192)
      .stmt(1.0)
      .read(u, {sym("i")})
      .read(v, {ir::sym_const(7)})
      .done();
  return pb.build();
}

TEST(WalkSkip, FootprintMustFitTheCapacity) {
  const ir::Program p = footprint_program(4);
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  const Bytes footprint = 3 * kib(64);
  GeneratorOptions options;
  options.cache_bytes = footprint;
  const SkippingWalk fits = expect_same_misses(p, table, options, "F");
  EXPECT_EQ(fits.sweeps_skipped, 3);
  EXPECT_EQ(fits.misses.size(), 3u);
  options.cache_bytes = footprint - 1;
  const SkippingWalk tight = expect_same_misses(p, table, options, "F - 1");
  EXPECT_EQ(tight.sweeps_skipped, 0);
}

TEST(WalkSkip, NothingIsSkippedWithoutACapacity) {
  // A sweep that touches nothing fits any cache, yet without a capacity the
  // walk still skips no sweep.
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {8192});
  pb.nest("compute").loop("t", 0, 4).loop("i", 0, 8).stmt(1.0).done();
  pb.nest("read").loop("i", 0, 8192).stmt(1.0).read(u, {sym("i")}).done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions options;
  options.cache_bytes = 0;
  EXPECT_EQ(expect_same_misses(p, table, options, "no cache").sweeps_skipped,
            0);
  options.cache_bytes = kib(64);
  EXPECT_EQ(expect_same_misses(p, table, options, "cache").sweeps_skipped, 3);
}

TEST(WalkSkip, StrideProbe) {
  // A[12288 j + i] strides 1.5 blocks per inner trip: at i = 4096 the
  // blocks visited change from {0,1,3} to {0,2,3} while the range stays
  // [0,3], so a moved base with |stride| > block size must not skip.
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {49'152});
  pb.nest("n")
      .loop("i", 0, 8192)
      .loop("j", 0, 3)
      .stmt(1.0)
      .read(a, {12'288 * sym("j") + sym("i")})
      .done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions options;  // stripe-sized blocks, 6 MiB cache
  const SkippingWalk walk = expect_same_misses(p, table, options, "stride");
  EXPECT_EQ(walk.misses.size(), 4u);
}

TEST(WalkSkip, OrderProbe) {
  // A and B both cross a block boundary and A's base moves, so the second
  // sweep touches the same blocks in another order (A0 B0 B1 A1, then
  // A0 B0 A1 B1).  The LRU order that follows decides whether the last
  // nest's A[8] evicts B's block 1 before B[8] reads it.
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  const auto c = pb.array("C", {64});
  pb.nest("swept")
      .loop("i", 0, 2)
      .loop("j", 0, 12)
      .stmt(1.0)
      .read(a, {sym("j") + sym("i")})
      .read(b, {sym("j") + 1})
      .done();
  pb.nest("evict").loop("k", 0, 3).stmt(1.0).read(c, {8 * sym("k")}).done();
  pb.nest("reread")
      .loop("k", 0, 1)
      .stmt(1.0)
      .read(a, {sym("k") + 8})
      .read(b, {sym("k") + 8})
      .done();
  const ir::Program p = pb.build();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  GeneratorOptions options;
  options.block_size = 64;
  options.cache_bytes = 256;
  const SkippingWalk walk = expect_same_misses(p, table, options, "order");
  EXPECT_EQ(walk.misses.size(), 9u);
}

// --- Pinned sweeps: probes for (p1)-(p5) --------------------------------
//
// Each probe uses 64 B blocks (eight doubles) over 4 disks, and most a
// 320 B (five-block) cache.  The `evict` and `reread` nests read the LRU
// order that the swept nest leaves: `evict` inserts three blocks of C, and
// `reread` then finds B's block 1 resident or not.

GeneratorOptions probe_options(Bytes cache_bytes = 320) {
  GeneratorOptions options;
  options.block_size = 64;
  options.cache_bytes = cache_bytes;
  return options;
}

SkippingWalk probe_walk(const ir::Program& p, const GeneratorOptions& options,
                        const std::string& label) {
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  return expect_same_misses(p, table, options, label);
}

/// Adds the `evict` and `reread` nests over arrays C and B.
void add_evict_and_reread(ProgramBuilder& pb, ir::ArrayId b, ir::ArrayId c) {
  pb.nest("evict").loop("k", 0, 3).stmt(1.0).read(c, {8 * sym("k")}).done();
  pb.nest("reread").loop("k", 0, 1).stmt(1.0).read(b, {sym("k") + 8}).done();
}

TEST(WalkSkip, TopProbe) {
  // Sweep 0 of `swept` has two multi-block references (A's blocks 0-1 and
  // B's 0-1); sweep 1 has one, A, whose range stays while B moves on to
  // block 2.  A's block 1 is then not the LRU's most recent entry (B's
  // block 1 is), so sweep 1 must not be pinned (p4): a pinned walk would
  // leave B1 A1 B2 A0 B0 instead of A1 B2 A0 B1 B0, and `evict` would
  // drop B0, A0 and B2 instead of B0, B1 and A0, keeping B's block 1 for
  // `reread`.  9 misses in full; 8 without (p4).
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  const auto c = pb.array("C", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(a, {2 * sym("j")})
      .read(b, {12 * sym("o") + sym("j") + 4})
      .done();
  add_evict_and_reread(pb, b, c);
  const SkippingWalk walk = probe_walk(pb.build(), probe_options(), "top");
  EXPECT_EQ(walk.misses.size(), 9u);
  EXPECT_EQ(walk.sweeps_pinned, 0);
}

TEST(WalkSkip, PinnedSweepMustFitTheCapacity) {
  // A spans blocks 0-2 and B moves one block per sweep: 4 blocks against a
  // 3-block cache, so sweep 1 re-reads A's blocks 1 and 2 as misses.
  // 8 misses in full; 6 without (p1).
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 12)
      .stmt(1.0)
      .read(a, {2 * sym("j")})
      .read(b, {8 * sym("o")})
      .done();
  const SkippingWalk walk =
      probe_walk(pb.build(), probe_options(192), "fit");
  EXPECT_EQ(walk.misses.size(), 8u);
  EXPECT_EQ(walk.sweeps_pinned, 0);
}

TEST(WalkSkip, PinnedSweepNeedsOneMultiBlockReference) {
  // B[j + 4o] fits block 0 in sweep 0 and spans blocks 0-1 in sweep 1,
  // next to A, which spans 0-1 in both.  Sweep 1 enters B's block 1 after
  // trip 0: 4 misses in full; 3 without (p2).
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(b, {sym("j") + 4 * sym("o")})
      .read(a, {2 * sym("j")})
      .done();
  const SkippingWalk walk = probe_walk(pb.build(), probe_options(), "one");
  EXPECT_EQ(walk.misses.size(), 4u);
  EXPECT_EQ(walk.sweeps_pinned, 0);
}

TEST(WalkSkip, PinnedSweepKeepsItsRange) {
  // A[8o + 2j] spans blocks 0-1, then 1-2: sweep 1 enters block 2 after
  // trip 0.  3 misses in full; 2 without (p3).
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(a, {8 * sym("o") + 2 * sym("j")})
      .done();
  const SkippingWalk walk =
      probe_walk(pb.build(), probe_options(), "range");
  EXPECT_EQ(walk.misses.size(), 3u);
  EXPECT_EQ(walk.sweeps_pinned, 0);
}

TEST(WalkSkip, PinnedSweepOwnsItsArray) {
  // A[16] names block 2 of A, which A[2j] enters last: at trip 0 it moves
  // that block above A's block 1, where a pinned walk would leave it
  // below.  The true order A2 A1 B1 A0 B0 lets `evict` drop B's block 1;
  // the pinned A1 B1 A2 A0 B0 keeps it.  9 misses in full; 8 without (p5).
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  const auto c = pb.array("C", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 12)
      .stmt(1.0)
      .read(a, {2 * sym("j")})
      .read(a, {ir::sym_const(16)})
      .read(b, {8 * sym("o")})
      .done();
  add_evict_and_reread(pb, b, c);
  const SkippingWalk walk = probe_walk(pb.build(), probe_options(), "own");
  EXPECT_EQ(walk.misses.size(), 9u);
  EXPECT_EQ(walk.sweeps_pinned, 0);
}

TEST(WalkSkip, PinnedSweepOverTwoBlocks) {
  // A[2j] spans exactly blocks 0-1, so its anchor is its last block; B
  // moves one block per sweep, and sweeps 1 and 2 are pinned.
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  const auto c = pb.array("C", {64});
  pb.nest("swept")
      .loop("o", 0, 3)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(a, {2 * sym("j")})
      .read(b, {8 * sym("o") + 8})
      .done();
  add_evict_and_reread(pb, b, c);
  const SkippingWalk walk = probe_walk(pb.build(), probe_options(), "two");
  EXPECT_EQ(walk.sweeps_pinned, 2);
}

TEST(WalkSkip, PinnedSweepWithANegativeStride) {
  // A[31 - 2j] enters blocks 3, 2, 1, 0 in that order, so the anchor of
  // the pinned sweep 1 is block 2, the one entered first after trip 0.
  // With a six-block cache the true order after it is A0 A1 A2 B1 A3 B0,
  // and `evict` drops B's block 1.  Anchored at block 1 (lo + 1) instead,
  // the order would be A0 A1 B1 A3 A2 B0, keeping it: 10 misses in full;
  // 9 with that anchor.
  ProgramBuilder pb("p");
  const auto a = pb.array("A", {64});
  const auto b = pb.array("B", {64});
  const auto c = pb.array("C", {64});
  pb.nest("swept")
      .loop("o", 0, 2)
      .loop("j", 0, 16)
      .stmt(1.0)
      .read(a, {-2 * sym("j") + 31})
      .read(b, {8 * sym("o")})
      .done();
  add_evict_and_reread(pb, b, c);
  const SkippingWalk walk =
      probe_walk(pb.build(), probe_options(384), "negative");
  EXPECT_EQ(walk.misses.size(), 10u);
  EXPECT_EQ(walk.sweeps_pinned, 1);
}

// --- Skip runs: edges of the closed-form jump ----------------------------

TEST(WalkSkip, SkipRunEndsAtTheOdometerWrap) {
  // V[b + 16] stays in block 2 across b, so each b-loop's sweeps 1-5 skip
  // as one run that must stop at the wrap into the next a.  With U[8a + i]
  // the sweep after the wrap moves to a new block and is walked; with
  // U[i] it repeats and is skipped too.
  for (const bool moves : {true, false}) {
    ProgramBuilder pb("p");
    const auto u = pb.array("U", {64});
    const auto v = pb.array("V", {64});
    pb.nest("n")
        .loop("a", 0, 3)
        .loop("b", 0, 6)
        .loop("i", 0, 8)
        .stmt(1.0)
        .read(u, {moves ? 8 * sym("a") + sym("i") : sym("i")})
        .read(v, {sym("b") + 16})
        .done();
    const SkippingWalk walk = probe_walk(
        pb.build(), probe_options(), moves ? "wrap, moves" : "wrap");
    EXPECT_EQ(walk.sweeps_skipped, moves ? 15 : 17) << moves;
    EXPECT_EQ(walk.misses.size(), moves ? 4u : 2u) << moves;
  }
}

TEST(WalkSkip, SkipRunWithANegativeOuterCoefficient) {
  // U[40 - t + i] over i < 8 moves down one double per sweep.  It fits
  // block 5 at t = 0, spans blocks 4-5 for t = 1-7 (a run of six after
  // t = 1), fits block 4 at t = 8 and spans blocks 3-4 from t = 9 on (a
  // run of two, cut by the loop's end).
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {64});
  pb.nest("n")
      .loop("t", 0, 12)
      .loop("i", 0, 8)
      .stmt(1.0)
      .read(u, {-1 * sym("t") + sym("i") + 40})
      .done();
  const SkippingWalk walk = probe_walk(pb.build(), probe_options(), "down");
  EXPECT_EQ(walk.sweeps_skipped, 8);
  EXPECT_EQ(walk.misses.size(), 3u);
}

/// Walks `p` with MissCursor until it ends or throws; returns the misses
/// before that and the located error's text ("" when none).
struct WalkUntilError {
  std::vector<MissRecord> misses;
  std::int64_t sweeps_skipped = 0;
  std::string error;
};
WalkUntilError walk_until_error(const ir::Program& p,
                                const GeneratorOptions& options) {
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  MissCursor cursor(p, table, options);
  WalkUntilError walk;
  try {
    cursor.walk(walk.misses);
  } catch (const Error& e) {
    walk.error = e.what();
  }
  walk.sweeps_skipped = cursor.sweeps_skipped();
  return walk;
}

/// `for t < sweeps, i < 1: read U[first + step*t]` over 100 doubles.
ir::Program one_reference_program(std::int64_t sweeps, std::int64_t first,
                                   std::int64_t step) {
  ProgramBuilder pb("p");
  const auto u = pb.array("U", {100});
  pb.nest("leaves")
      .loop("t", 0, sweeps)
      .loop("i", 0, 1)
      .stmt(1.0)
      .read(u, {step * sym("t") + first})
      .done();
  return pb.build();
}

constexpr const char* kOutOfBounds =
    "array reference out of bounds in nest 'leaves'";

TEST(WalkSkip, SkipRunIsCutShortByAPartialLastBlock) {
  // U holds 800 B, so its 512 B block 1 is partial.  U[92 + t] stays in
  // block 1 up to the last double at t = 7: eight sweeps walk clean, seven
  // of them skipped; a ninth reads byte 800 and must throw, after the same
  // seven skips.
  GeneratorOptions options;
  options.block_size = 512;
  options.cache_bytes = kib(4);
  const WalkUntilError clean =
      walk_until_error(one_reference_program(8, 92, 1), options);
  EXPECT_EQ(clean.error, "");
  EXPECT_EQ(clean.sweeps_skipped, 7);
  EXPECT_EQ(clean.misses.size(), 1u);
  const WalkUntilError past =
      walk_until_error(one_reference_program(9, 92, 1), options);
  EXPECT_NE(past.error.find(kOutOfBounds), std::string::npos) << past.error;
  EXPECT_EQ(past.sweeps_skipped, 7);
  EXPECT_EQ(past.misses.size(), 1u);
}

TEST(WalkSkip, ReferenceLeavingItsArrayMidRunThrowsAtItsSweep) {
  // U[92 + t] (over t < 12) leaves U's partial last block at t = 8, and
  // U[7 - t] leaves U's first block below byte 0 at t = 8; neither changes
  // its block range before that.  Each walk must skip sweeps 1-7 and
  // throw the located error at sweep 8, not skip past it.
  GeneratorOptions options;
  options.block_size = 512;
  options.cache_bytes = kib(4);
  for (const auto& [first, step] :
       {std::pair<std::int64_t, std::int64_t>{92, 1}, {7, -1}}) {
    const WalkUntilError walk =
        walk_until_error(one_reference_program(12, first, step), options);
    EXPECT_NE(walk.error.find(kOutOfBounds), std::string::npos)
        << walk.error;
    EXPECT_EQ(walk.sweeps_skipped, 7) << first;
    EXPECT_EQ(walk.misses.size(), 1u) << first;
  }
}

TEST(Trace, WriteTextFormat) {
  const ir::Program p = sweep_twice_program();
  const layout::LayoutTable table(p, layout::Striping{0, 4, kib(64)}, 4);
  TraceGenerator gen(p, table, no_cache());
  const Trace trace = gen.generate();
  std::ostringstream os;
  write_trace_text(trace, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# arrival_ms disk start_sector size_bytes type"),
            std::string::npos);
  EXPECT_NE(text.find(" R\n"), std::string::npos);
}

}  // namespace
}  // namespace sdpm::trace
