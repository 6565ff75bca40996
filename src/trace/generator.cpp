#include "trace/generator.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/error.h"

namespace sdpm::trace {

namespace {

/// Global coordinates of the program's power directives, in program order.
std::vector<std::int64_t> directive_globals_of(const ir::Program& program,
                                               const IterationSpace& space) {
  std::vector<std::int64_t> globals;
  globals.reserve(program.directives.size());
  for (const ir::PlacedDirective& pd : program.directives) {
    globals.push_back(space.global_of(pd.point));
  }
  SDPM_REQUIRE(std::is_sorted(globals.begin(), globals.end()),
               "program directives must be sorted (call sort_directives)");
  return globals;
}

/// A power event fires at its iteration's compute time plus the overhead
/// of every directive executed before it (directives at the same point run
/// in program order, each paying Tm).  The directives are sorted, so one
/// forward walk over the nests times them all.
std::vector<PowerEvent> power_events_of(
    const ir::Program& program, const Timeline& actual,
    const std::vector<std::int64_t>& directive_globals, TimeMs tm) {
  std::vector<PowerEvent> events;
  events.reserve(program.directives.size());
  Timeline::Cursor clock(actual);
  for (std::size_t i = 0; i < program.directives.size(); ++i) {
    PowerEvent ev;
    ev.global_iter = directive_globals[i];
    ev.app_time_ms = clock.at(ev.global_iter) + tm * static_cast<double>(i);
    ev.directive = program.directives[i].directive;
    events.push_back(ev);
  }
  return events;
}

/// The request of one miss arriving at `arrival_ms`.
Request request_from_miss(const MissRecord& miss, TimeMs arrival_ms,
                          const GeneratorOptions& options) {
  Request r;
  r.arrival_ms = arrival_ms;
  r.disk = miss.disk;
  r.start_sector = miss.start_sector;
  r.size_bytes = miss.size_bytes;
  r.kind = miss.kind;
  r.global_iter = miss.global_iter;
  if (miss.kind == ir::AccessKind::kRead) {
    r.prefetch_lead_ms = options.prefetch_lead_ms;
  }
  return r;
}

}  // namespace

Bytes block_size_for(const layout::LayoutTable& layout, ir::ArrayId array,
                     const GeneratorOptions& options) {
  const Bytes stripe = layout.layout_of(array).striping().stripe_size;
  if (options.block_size == 0) return stripe;
  SDPM_REQUIRE(stripe % options.block_size == 0,
               "block size must divide every array's stripe size");
  return options.block_size;
}

MissCursor::MissCursor(const ir::Program& program,
                       const layout::LayoutTable& layout,
                       const GeneratorOptions& options)
    : layout_(&layout), options_(options), space_(program),
      geometry_(program.arrays.size()), cache_(options.cache_bytes),
      cursor_(
          program, [this](ir::ArrayId a) { return block_size_of(a); },
          options.cache_bytes) {
  SDPM_REQUIRE(layout.array_count() == program.arrays.size(),
               "layout table does not match program arrays");
}

Bytes MissCursor::block_size_of(ir::ArrayId array) {
  Geometry& g = geometry_[static_cast<std::size_t>(array)];
  if (g.block_size == 0) {
    g.block_size = block_size_for(*layout_, array, options_);
    g.file_size = layout_->layout_of(array).file_size();
  }
  return g.block_size;
}

bool MissCursor::next(MissRecord& out) {
  BlockTouch touch;
  while (cursor_.next(touch)) {
    const CacheBlock* anchor = cursor_.anchor();
    if (cache_.hit(touch.array, touch.block, anchor)) continue;
    const Geometry& g = geometry_[static_cast<std::size_t>(touch.array)];
    const Bytes begin = touch.block * g.block_size;
    const Bytes length = std::min(g.block_size, g.file_size - begin);
    cache_.insert(touch.array, touch.block, length, anchor);

    // A block never spans disks: block size divides the stripe size.
    const layout::PhysicalLocation loc = layout_->locate(touch.array, begin);
    out.global_iter =
        space_.global_of(ir::IterationPoint{touch.nest, touch.flat_iter});
    out.disk = loc.disk;
    out.start_sector = loc.sector();
    out.size_bytes = length;
    out.kind = touch.kind;
    out.array = touch.array;
    out.block = touch.block;
    return true;
  }
  return false;
}

AccessKey access_key_of(const ir::Program& program,
                        const layout::LayoutTable& layout,
                        const GeneratorOptions& options) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(program.arrays.size()));
  for (const ir::Array& a : program.arrays) {
    fp.mix(static_cast<std::uint64_t>(a.extents.size()));
    for (std::int64_t e : a.extents) fp.mix(e);
    fp.mix(a.element_size);
    fp.mix(static_cast<std::uint64_t>(a.layout));
  }
  fp.mix(static_cast<std::uint64_t>(program.nests.size()));
  for (const ir::LoopNest& nest : program.nests) {
    fp.mix(static_cast<std::uint64_t>(nest.loops.size()));
    for (const ir::Loop& loop : nest.loops) {
      fp.mix(loop.lower);
      fp.mix(loop.upper);
      fp.mix(loop.step);
    }
    fp.mix(static_cast<std::uint64_t>(nest.body.size()));
    for (const ir::Statement& stmt : nest.body) {
      fp.mix(static_cast<std::uint64_t>(stmt.refs.size()));
      for (const ir::ArrayRef& ref : stmt.refs) {
        fp.mix(ref.array);
        fp.mix(static_cast<std::uint64_t>(ref.kind));
        fp.mix(static_cast<std::uint64_t>(ref.subscripts.size()));
        for (const ir::AffineExpr& sub : ref.subscripts) {
          fp.mix(static_cast<std::uint64_t>(sub.coefs.size()));
          for (std::int64_t c : sub.coefs) fp.mix(c);
          fp.mix(sub.constant);
        }
      }
    }
  }
  fp.mix(layout.total_disks());
  fp.mix(static_cast<std::uint64_t>(layout.array_count()));
  for (std::size_t a = 0; a < layout.array_count(); ++a) {
    const layout::FileLayout& fl =
        layout.layout_of(static_cast<ir::ArrayId>(a));
    fp.mix(fl.striping().starting_disk);
    fp.mix(fl.striping().stripe_factor);
    fp.mix(fl.striping().stripe_size);
    fp.mix(fl.file_size());
  }
  fp.mix(options.block_size);
  fp.mix(options.cache_bytes);
  return fp.key();
}

namespace {

using Misses = std::shared_ptr<const std::vector<MissRecord>>;

/// Process-wide LRU of materialized walks, most recent first.  It holds a
/// handful of entries, so a linear scan is the whole index.
class AccessMemo {
 public:
  static AccessMemo& global() {
    static AccessMemo memo;
    return memo;
  }

  /// The memoized walk for `key`, or null on a miss.
  Misses find(const AccessKey& key) {
    std::lock_guard lock(mutex_);
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.key == key; });
    if (it == entries_.end()) return nullptr;
    std::rotate(entries_.begin(), it, it + 1);
    return entries_.front().misses;
  }

  /// Keep `misses` as the most recent walk.  Two callers racing on one
  /// key both walk; equal keys walk equal misses, so the second insert
  /// only refreshes the entry.
  void insert(const AccessKey& key, Misses misses) {
    std::lock_guard lock(mutex_);
    std::erase_if(entries_, [&](const Entry& e) { return e.key == key; });
    entries_.insert(entries_.begin(), Entry{key, std::move(misses)});
    if (entries_.size() > kAccessMemoCapacity) entries_.pop_back();
  }

  void clear() {
    std::lock_guard lock(mutex_);
    entries_.clear();
  }

 private:
  struct Entry {
    AccessKey key;
    Misses misses;
  };

  std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace

std::shared_ptr<const std::vector<MissRecord>> collect_misses(
    const ir::Program& program, const layout::LayoutTable& layout,
    const GeneratorOptions& options) {
  AccessMemo& memo = AccessMemo::global();
  const AccessKey key = access_key_of(program, layout, options);
  if (Misses hit = memo.find(key)) return hit;

  // Walk outside the memo's lock so walks of different keys run in
  // parallel.
  MissCursor cursor(program, layout, options);
  auto misses = std::make_shared<std::vector<MissRecord>>();
  MissRecord miss;
  while (cursor.next(miss)) misses->push_back(miss);
  static obs::MetricsRegistry::Counter& walks_run =
      obs::MetricsRegistry::global().counter("trace.walks_run");
  static obs::MetricsRegistry::Counter& sweeps_skipped =
      obs::MetricsRegistry::global().counter("trace.sweeps_skipped");
  static obs::MetricsRegistry::Counter& sweeps_pinned =
      obs::MetricsRegistry::global().counter("trace.sweeps_pinned");
  walks_run.fetch_add(1, std::memory_order_relaxed);
  sweeps_skipped.fetch_add(cursor.sweeps_skipped(),
                           std::memory_order_relaxed);
  sweeps_pinned.fetch_add(cursor.sweeps_pinned(), std::memory_order_relaxed);
  memo.insert(key, misses);
  return misses;
}

void clear_access_memo() { AccessMemo::global().clear(); }

TraceGenerator::TraceGenerator(const ir::Program& program,
                               const layout::LayoutTable& layout,
                               GeneratorOptions options)
    : program_(program), layout_(layout), options_(options),
      actual_(Timeline::with_noise(program, options.noise, options.clock_hz)) {
  program_.validate();
}

Trace TraceGenerator::generate() const {
  Trace trace;
  trace.total_disks = layout_.total_disks();

  const IterationSpace& space = actual_.space();
  const TimeMs tm = options_.power_call_overhead_ms;

  const std::vector<std::int64_t> directive_globals =
      directive_globals_of(program_, space);
  trace.power_events =
      power_events_of(program_, actual_, directive_globals, tm);

  const std::shared_ptr<const std::vector<MissRecord>> misses =
      collect_misses(program_, layout_, options_);
  trace.requests.reserve(misses->size());
  // A miss arrives at its iteration's compute time plus the overhead of
  // every directive executed before it (those at or before its iteration).
  // Misses come in program order, so one forward walk over the nests and
  // the directives times them all.
  Timeline::Cursor clock(actual_);
  std::size_t directives_before = 0;
  std::int64_t previous_iter = 0;
  for (const MissRecord& miss : *misses) {
    SDPM_REQUIRE(miss.global_iter >= previous_iter,
                 "misses must come in program order: iteration " +
                     std::to_string(miss.global_iter) + " after " +
                     std::to_string(previous_iter));
    previous_iter = miss.global_iter;
    while (directives_before < directive_globals.size() &&
           directive_globals[directives_before] <= miss.global_iter) {
      ++directives_before;
    }
    const TimeMs arrival = clock.at(miss.global_iter) +
                           tm * static_cast<double>(directives_before);
    trace.requests.push_back(request_from_miss(miss, arrival, options_));
    trace.bytes_transferred += miss.size_bytes;
  }

  trace.compute_total_ms =
      actual_.total() + tm * static_cast<double>(program_.directives.size());
  static obs::MetricsRegistry::Counter& generated =
      obs::MetricsRegistry::global().counter("trace.generated");
  generated.fetch_add(1, std::memory_order_relaxed);
  return trace;
}

}  // namespace sdpm::trace
