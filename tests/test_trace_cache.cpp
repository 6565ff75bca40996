// Content-keyed trace cache: key construction must cover every input that
// changes the generated trace (and nothing that doesn't), and the LRU
// cache must hit/miss/evict accordingly.  The access key under it must
// cover every input the access walk reads, and nothing else.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.h"
#include "core/tiling.h"
#include "disk/parameters.h"
#include "experiments/trace_cache.h"
#include "ir/builder.h"
#include "layout/layout_table.h"
#include "obs/metrics.h"
#include "trace/generator.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm::experiments {
namespace {

constexpr int kDisks = 8;

layout::Striping striping(Bytes stripe = kib(64)) {
  return layout::Striping{0, kDisks, stripe};
}

trace::GeneratorOptions small_cache_options() {
  trace::GeneratorOptions gen;
  gen.cache_bytes = kib(512);
  return gen;
}

TEST(TraceKey, IdenticalInputsProduceEqualKeys) {
  const workloads::Benchmark a = workloads::make_galgel();
  const workloads::Benchmark b = workloads::make_galgel();
  const layout::LayoutTable la(a.program, striping(), kDisks);
  const layout::LayoutTable lb(b.program, striping(), kDisks);
  const trace::GeneratorOptions gen = small_cache_options();
  EXPECT_EQ(trace_key_of(a.program, la, gen), trace_key_of(b.program, lb, gen));
}

TEST(TraceKey, NamesDoNotAffectTheKey) {
  // Names are presentation-only: renaming the program or its arrays must
  // not invalidate cached traces.
  workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  const trace::GeneratorOptions gen = small_cache_options();
  const TraceKey before = trace_key_of(bench.program, table, gen);
  bench.program.name = "renamed";
  for (auto& array : bench.program.arrays) array.name += "_x";
  const layout::LayoutTable renamed(bench.program, striping(), kDisks);
  EXPECT_EQ(before, trace_key_of(bench.program, renamed, gen));
}

TEST(TraceKey, DiffersOnNoiseSeedAndSigma) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  trace::GeneratorOptions gen = small_cache_options();
  gen.noise = trace::CycleNoise{0.2, 1};
  const TraceKey base = trace_key_of(bench.program, table, gen);

  trace::GeneratorOptions other_seed = gen;
  other_seed.noise.seed = 2;
  EXPECT_NE(base, trace_key_of(bench.program, table, other_seed));

  trace::GeneratorOptions other_sigma = gen;
  other_sigma.noise.sigma = 0.4;
  EXPECT_NE(base, trace_key_of(bench.program, table, other_sigma));
}

TEST(TraceKey, DiffersOnGeneratorOptions) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  const trace::GeneratorOptions gen = small_cache_options();
  const TraceKey base = trace_key_of(bench.program, table, gen);

  trace::GeneratorOptions block = gen;
  block.block_size = kib(32);
  EXPECT_NE(base, trace_key_of(bench.program, table, block));

  trace::GeneratorOptions cache = gen;
  cache.cache_bytes = mib(1);
  EXPECT_NE(base, trace_key_of(bench.program, table, cache));

  trace::GeneratorOptions overhead = gen;
  overhead.power_call_overhead_ms = 0.5;
  EXPECT_NE(base, trace_key_of(bench.program, table, overhead));

  trace::GeneratorOptions prefetch = gen;
  prefetch.prefetch_lead_ms = 5.0;
  EXPECT_NE(base, trace_key_of(bench.program, table, prefetch));
}

TEST(TraceKey, DiffersOnLayout) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const trace::GeneratorOptions gen = small_cache_options();
  const layout::LayoutTable base_layout(bench.program, striping(), kDisks);
  const TraceKey base = trace_key_of(bench.program, base_layout, gen);

  const layout::LayoutTable wider_stripe(bench.program, striping(kib(128)),
                                         kDisks);
  EXPECT_NE(base, trace_key_of(bench.program, wider_stripe, gen));

  const layout::LayoutTable fewer_disks(
      bench.program, layout::Striping{0, 4, kib(64)}, 4);
  EXPECT_NE(base, trace_key_of(bench.program, fewer_disks, gen));
}

TEST(TraceKey, DiffersOnTileSize) {
  // Different tile sizes restructure the nests, so the transformed
  // programs must fingerprint differently (a cache hit across tile sizes
  // would replay the wrong trace).
  const workloads::Benchmark bench = workloads::make_wupwise();
  const trace::GeneratorOptions gen = small_cache_options();

  core::TilingOptions small_tiles;
  small_tiles.total_disks = kDisks;
  small_tiles.base_striping = striping();
  small_tiles.access = gen;
  small_tiles.tile_bytes = kib(16);
  core::TilingOptions big_tiles = small_tiles;
  big_tiles.tile_bytes = mib(4);

  const core::TilingResult a = core::apply_loop_tiling(bench.program,
                                                       small_tiles);
  const core::TilingResult b = core::apply_loop_tiling(bench.program,
                                                       big_tiles);
  // The premise: the two footprints pick different tile shapes.
  ASSERT_NE(a.program.to_string(), b.program.to_string());
  const layout::LayoutTable la(a.program, striping(), kDisks);
  const layout::LayoutTable lb(b.program, striping(), kDisks);
  EXPECT_NE(trace_key_of(a.program, la, gen),
            trace_key_of(b.program, lb, gen));
}

TEST(TraceCacheTest, HitReturnsTheSameTrace) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  const trace::GeneratorOptions gen = small_cache_options();

  TraceCache cache(4);
  const auto first = cache.get_or_generate(bench.program, table, gen);
  const auto second = cache.get_or_generate(bench.program, table, gen);
  EXPECT_EQ(first.get(), second.get());  // the very same object
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TraceCacheTest, CachedTraceEqualsFreshGeneration) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  const trace::GeneratorOptions gen = small_cache_options();

  TraceCache cache(4);
  const auto cached = cache.get_or_generate(bench.program, table, gen);
  const trace::Trace fresh =
      trace::TraceGenerator(bench.program, table, gen).generate();
  ASSERT_EQ(cached->requests.size(), fresh.requests.size());
  EXPECT_EQ(cached->compute_total_ms, fresh.compute_total_ms);
  EXPECT_EQ(cached->bytes_transferred, fresh.bytes_transferred);
  for (std::size_t i = 0; i < fresh.requests.size(); ++i) {
    ASSERT_EQ(cached->requests[i].arrival_ms, fresh.requests[i].arrival_ms);
    ASSERT_EQ(cached->requests[i].disk, fresh.requests[i].disk);
    ASSERT_EQ(cached->requests[i].start_sector,
              fresh.requests[i].start_sector);
    ASSERT_EQ(cached->requests[i].size_bytes, fresh.requests[i].size_bytes);
  }
}

TEST(TraceCacheTest, DifferentSeedsOccupyDistinctEntries) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  trace::GeneratorOptions gen = small_cache_options();
  gen.noise = trace::CycleNoise{0.2, 1};

  TraceCache cache(4);
  const auto first = cache.get_or_generate(bench.program, table, gen);
  gen.noise.seed = 2;
  const auto second = cache.get_or_generate(bench.program, table, gen);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsed) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  trace::GeneratorOptions gen = small_cache_options();

  TraceCache cache(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen.noise = trace::CycleNoise{0.2, seed};
    cache.get_or_generate(bench.program, table, gen);
  }
  EXPECT_EQ(cache.size(), 2u);  // seed 1 was evicted
}

TEST(TraceCacheTest, SharedPtrOutlivesEviction) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  trace::GeneratorOptions gen = small_cache_options();

  TraceCache cache(1);
  gen.noise = trace::CycleNoise{0.2, 1};
  const auto held = cache.get_or_generate(bench.program, table, gen);
  const std::size_t n = held->requests.size();
  gen.noise = trace::CycleNoise{0.2, 2};
  cache.get_or_generate(bench.program, table, gen);  // evicts the first
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(held->requests.size(), n);  // still fully usable
}

// ---------------------------------------------------------------------------
// Access key soundness: one field at a time, every field the walk reads
// changes the access key, and every timing-only field leaves both the key
// and the walk unchanged.

/// Two nests over two arrays; the first nest has two statements, the first
/// of them with two references, so statement and reference order matter.
ir::Program keyed_program() {
  ir::ProgramBuilder pb("keyed");
  const auto a = pb.array("A", {256, 512});
  const auto b = pb.array("B", {256, 512});
  pb.nest("sweep")
      .loop("i", 0, 256)
      .loop("j", 0, 512)
      .stmt(40.0, "s0")
      .read(a, {ir::sym("i"), ir::sym("j")})
      .write(b, {ir::sym("i"), ir::sym("j")})
      .stmt(60.0, "s1")
      .read(b, {ir::sym("i"), ir::sym("j")})
      .overhead(4.0)
      .done();
  pb.nest("transpose")
      .loop("j", 0, 512)
      .loop("i", 0, 256)
      .stmt(50.0, "s2")
      .read(a, {ir::sym("i"), ir::sym("j")})
      .done();
  return pb.build();
}

/// Everything both keys read, as one value a mutation edits in place.
struct KeyInputs {
  ir::Program program = keyed_program();
  /// The layout sizes its files from this program, so a mutation can
  /// resize a file without touching the walked program.
  ir::Program file_sizes = keyed_program();
  layout::Striping layout_striping = striping();
  int total_disks = kDisks;
  trace::GeneratorOptions options = small_cache_options();

  layout::LayoutTable layout() const {
    return layout::LayoutTable(file_sizes, layout_striping, total_disks);
  }
  trace::AccessKey access_key() const {
    return trace::access_key_of(program, layout(), options);
  }
  TraceKey trace_key() const {
    return trace_key_of(program, layout(), options);
  }
  /// The walk, straight from the cursor: no memo involved.
  std::vector<trace::MissRecord> uncached_walk() const {
    const layout::LayoutTable table = layout();
    trace::MissCursor cursor(program, table, options);
    std::vector<trace::MissRecord> misses;
    cursor.walk(misses);
    return misses;
  }
};

struct FieldMutation {
  std::string field;
  std::function<void(KeyInputs&)> apply;
  bool name_only = false;
};

ir::ArrayRef& first_ref(KeyInputs& in) {
  return in.program.nests[0].body[0].refs[0];
}

/// Every field the access walk reads.
std::vector<FieldMutation> walked_fields() {
  return {
      {"array extents",
       [](KeyInputs& in) { in.program.arrays[0].extents[1] += 8; }},
      {"element size",
       [](KeyInputs& in) { in.program.arrays[0].element_size = 4; }},
      {"storage order",
       [](KeyInputs& in) {
         in.program.arrays[0].layout = ir::StorageLayout::kColMajor;
       }},
      {"loop lower", [](KeyInputs& in) { in.program.nests[0].loops[0].lower = 1; }},
      {"loop upper",
       [](KeyInputs& in) { in.program.nests[0].loops[0].upper = 128; }},
      {"loop step", [](KeyInputs& in) { in.program.nests[0].loops[1].step = 2; }},
      {"statement order",
       [](KeyInputs& in) {
         std::swap(in.program.nests[0].body[0], in.program.nests[0].body[1]);
       }},
      {"reference order",
       [](KeyInputs& in) {
         std::swap(in.program.nests[0].body[0].refs[0],
                   in.program.nests[0].body[0].refs[1]);
       }},
      {"reference array", [](KeyInputs& in) { first_ref(in).array = 1; }},
      {"reference kind",
       [](KeyInputs& in) { first_ref(in).kind = ir::AccessKind::kWrite; }},
      {"subscript coefficient",
       [](KeyInputs& in) { first_ref(in).subscripts[1].coefs[1] = 2; }},
      {"subscript constant",
       [](KeyInputs& in) { first_ref(in).subscripts[0].constant = 1; }},
      {"starting disk",
       [](KeyInputs& in) { in.layout_striping.starting_disk = 1; }},
      {"stripe factor",
       [](KeyInputs& in) { in.layout_striping.stripe_factor = 4; }},
      {"stripe size",
       [](KeyInputs& in) { in.layout_striping.stripe_size = kib(128); }},
      {"file size",
       [](KeyInputs& in) { in.file_sizes.arrays[0].extents[0] += 8; }},
      {"total disks", [](KeyInputs& in) { in.total_disks = kDisks + 1; }},
      {"block size", [](KeyInputs& in) { in.options.block_size = kib(32); }},
      {"cache bytes", [](KeyInputs& in) { in.options.cache_bytes = mib(1); }},
  };
}

/// Every field that only moves timestamps.
std::vector<FieldMutation> timing_fields() {
  return {
      {"statement cycles",
       [](KeyInputs& in) { in.program.nests[0].body[1].cycles += 1.0; }},
      {"loop overhead cycles",
       [](KeyInputs& in) { in.program.nests[1].loop_overhead_cycles = 2.0; }},
      {"directives",
       [](KeyInputs& in) {
         in.program.directives.push_back(ir::PlacedDirective{
             ir::IterationPoint{1, 64},
             ir::PowerDirective{ir::PowerDirective::Kind::kSetRpm, 3, 2}});
       }},
      {"array name",
       [](KeyInputs& in) { in.program.arrays[0].name = "renamed"; },
       /*name_only=*/true},
      {"nest name",
       [](KeyInputs& in) { in.program.nests[0].name = "renamed"; },
       /*name_only=*/true},
      {"noise sigma", [](KeyInputs& in) { in.options.noise.sigma = 0.3; }},
      {"noise seed", [](KeyInputs& in) { in.options.noise.seed = 99; }},
      {"clock_hz", [](KeyInputs& in) { in.options.clock_hz *= 2.0; }},
      {"power_call_overhead_ms",
       [](KeyInputs& in) { in.options.power_call_overhead_ms = 0.5; }},
      {"prefetch_lead_ms",
       [](KeyInputs& in) { in.options.prefetch_lead_ms = 5.0; }},
  };
}

TEST(AccessKey, EveryWalkedFieldChangesBothKeys) {
  const KeyInputs base;
  for (const FieldMutation& m : walked_fields()) {
    KeyInputs mutated;
    m.apply(mutated);
    EXPECT_NE(mutated.access_key(), base.access_key()) << m.field;
    EXPECT_NE(mutated.trace_key(), base.trace_key()) << m.field;
  }
}

TEST(AccessKey, TimingFieldsLeaveTheKeyAndTheWalkUnchanged) {
  const KeyInputs base;
  const std::vector<trace::MissRecord> walk = base.uncached_walk();
  ASSERT_GT(walk.size(), 100u);  // the cache is small enough to miss
  for (const FieldMutation& m : timing_fields()) {
    KeyInputs mutated;
    m.apply(mutated);
    EXPECT_EQ(mutated.access_key(), base.access_key()) << m.field;
    EXPECT_EQ(mutated.uncached_walk(), walk) << m.field;
    if (m.name_only) {
      EXPECT_EQ(mutated.trace_key(), base.trace_key()) << m.field;
    } else {
      EXPECT_NE(mutated.trace_key(), base.trace_key()) << m.field;
    }
  }
}

void expect_same_trace(const trace::Trace& a, const trace::Trace& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const trace::Request& x = a.requests[i];
    const trace::Request& y = b.requests[i];
    ASSERT_EQ(x.arrival_ms, y.arrival_ms) << "request " << i;
    ASSERT_EQ(x.disk, y.disk) << "request " << i;
    ASSERT_EQ(x.start_sector, y.start_sector) << "request " << i;
    ASSERT_EQ(x.size_bytes, y.size_bytes) << "request " << i;
    ASSERT_EQ(x.kind, y.kind) << "request " << i;
    ASSERT_EQ(x.global_iter, y.global_iter) << "request " << i;
    ASSERT_EQ(x.prefetch_lead_ms, y.prefetch_lead_ms) << "request " << i;
  }
  ASSERT_EQ(a.power_events.size(), b.power_events.size());
  for (std::size_t i = 0; i < a.power_events.size(); ++i) {
    const trace::PowerEvent& x = a.power_events[i];
    const trace::PowerEvent& y = b.power_events[i];
    ASSERT_EQ(x.app_time_ms, y.app_time_ms) << "event " << i;
    ASSERT_EQ(x.global_iter, y.global_iter) << "event " << i;
    ASSERT_EQ(x.directive.kind, y.directive.kind) << "event " << i;
    ASSERT_EQ(x.directive.disk, y.directive.disk) << "event " << i;
    ASSERT_EQ(x.directive.rpm_level, y.directive.rpm_level) << "event " << i;
  }
  EXPECT_EQ(a.compute_total_ms, b.compute_total_ms);
  EXPECT_EQ(a.total_disks, b.total_disks);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
}

std::int64_t access_walks() {
  return obs::MetricsRegistry::global().snapshot().counter("trace.walks_run");
}

TEST(AccessMemo, TraceFromAHitEqualsAFreshGeneration) {
  const workloads::Benchmark bench = workloads::make_galgel();
  const layout::LayoutTable table(bench.program, striping(), kDisks);
  trace::GeneratorOptions gen = small_cache_options();

  core::SchedulerOptions so;
  so.mode = core::PowerMode::kDrpm;
  so.access = gen;
  const core::ScheduleResult cmdrpm = core::schedule_power_calls(
      bench.program, table, disk::DiskParameters(), so);
  ASSERT_GT(cmdrpm.calls_inserted, 0);

  for (const ir::Program* program : {&bench.program, &cmdrpm.program}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      gen.noise = trace::CycleNoise{0.2, seed};
      TraceCache::global().clear();
      const std::int64_t before = access_walks();
      // Walk the directive-free program under other timing options, so
      // the generation below can only reuse the walk through the key.
      trace::GeneratorOptions other = small_cache_options();
      other.clock_hz *= 3.0;
      trace::collect_misses(bench.program, table, other);
      const trace::Trace hit =
          trace::TraceGenerator(*program, table, gen).generate();
      EXPECT_EQ(access_walks() - before, 1);

      TraceCache::global().clear();
      const trace::Trace fresh =
          trace::TraceGenerator(*program, table, gen).generate();
      EXPECT_EQ(access_walks() - before, 2);  // clear() dropped the walk
      expect_same_trace(hit, fresh);
    }
  }
}

TEST(AccessMemo, ClearCoversTheMemo) {
  const KeyInputs in;
  const layout::LayoutTable table = in.layout();
  TraceCache& cache = TraceCache::global();
  cache.clear();

  const std::int64_t before = access_walks();
  const auto first = trace::collect_misses(in.program, table, in.options);
  const auto second = trace::collect_misses(in.program, table, in.options);
  EXPECT_EQ(first.get(), second.get());  // the very same walk
  EXPECT_EQ(access_walks() - before, 1);

  cache.clear();
  const auto after_clear =
      trace::collect_misses(in.program, table, in.options);
  EXPECT_NE(after_clear.get(), first.get());
  EXPECT_EQ(*after_clear, *first);
  EXPECT_EQ(access_walks() - before, 2);
}

TEST(AccessMemo, KeepsTheMostRecentWalks) {
  TraceCache::global().clear();
  KeyInputs in;
  const layout::LayoutTable table = in.layout();
  const std::int64_t before = access_walks();
  // One more distinct key than the memo holds: the first is evicted.
  for (std::size_t i = 0; i <= trace::kAccessMemoCapacity; ++i) {
    in.options.cache_bytes = kib(512) + static_cast<Bytes>(i) * kib(64);
    trace::collect_misses(in.program, table, in.options);
  }
  const std::int64_t filled = access_walks() - before;
  EXPECT_EQ(filled, static_cast<std::int64_t>(trace::kAccessMemoCapacity) + 1);
  trace::collect_misses(in.program, table, in.options);  // most recent: hit
  EXPECT_EQ(access_walks() - before, filled);
  in.options.cache_bytes = kib(512);  // the first key: evicted
  trace::collect_misses(in.program, table, in.options);
  EXPECT_EQ(access_walks() - before, filled + 1);
}

TEST(AccessMemo, AThrowingWalkIsNotMemoized) {
  TraceCache::global().clear();
  KeyInputs in;
  first_ref(in).subscripts[0].constant = 1;  // row 256 is out of bounds
  const layout::LayoutTable table = in.layout();
  const std::int64_t before = access_walks();
  for (int call = 0; call < 2; ++call) {
    try {
      trace::collect_misses(in.program, table, in.options);
      FAIL() << "an out-of-bounds reference must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nest 'sweep'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(access_walks() - before, 0);  // no walk completed
}

}  // namespace
}  // namespace sdpm::experiments
