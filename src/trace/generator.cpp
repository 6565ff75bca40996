#include "trace/generator.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

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

namespace {

/// Whether two nests have the same access shape, the per-nest part of
/// access_key_of: loop bounds and steps, and each statement's references
/// in order (array, kind, subscripts).  Nests of one program with the same
/// shape make the same touches at the same flat iterations.
bool same_access_shape(const ir::LoopNest& a, const ir::LoopNest& b) {
  if (a.loops.size() != b.loops.size() || a.body.size() != b.body.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.loops.size(); ++k) {
    const ir::Loop& x = a.loops[k];
    const ir::Loop& y = b.loops[k];
    if (x.lower != y.lower || x.upper != y.upper || x.step != y.step) {
      return false;
    }
  }
  for (std::size_t s = 0; s < a.body.size(); ++s) {
    const std::vector<ir::ArrayRef>& x = a.body[s].refs;
    const std::vector<ir::ArrayRef>& y = b.body[s].refs;
    if (x.size() != y.size()) return false;
    for (std::size_t r = 0; r < x.size(); ++r) {
      if (x[r].array != y[r].array || x[r].kind != y[r].kind ||
          x[r].subscripts != y[r].subscripts) {
        return false;
      }
    }
  }
  return true;
}

/// Each nest's shape id: the index of the first nest with its access
/// shape.  Exact comparison, no hash, so no collision can merge shapes.
std::vector<int> shape_ids(const ir::Program& program) {
  std::vector<int> ids(program.nests.size());
  for (std::size_t n = 0; n < ids.size(); ++n) {
    ids[n] = static_cast<int>(n);
    for (std::size_t m = 0; m < n; ++m) {
      if (ids[m] == static_cast<int>(m) &&
          same_access_shape(program.nests[m], program.nests[n])) {
        ids[n] = ids[m];
        break;
      }
    }
  }
  return ids;
}

/// A walked nest j whose predecessor evicted one of its own blocks: what a
/// later nest k replays when nests k-1, k have the shapes of j-1, j.
struct Twin {
  int before = 0;            ///< shape of nest j-1
  int shape = 0;             ///< shape of nest j
  std::size_t first = 0;     ///< nest j's misses are out[first, last)
  std::size_t last = 0;
  std::int64_t begin = 0;    ///< nest_begin(j)
  std::int64_t skipped = 0;  ///< sweeps nest j skipped
  std::int64_t pinned = 0;   ///< sweeps nest j pinned
  BufferCache cache;         ///< the cache as nest j left it
};

}  // namespace

MissCursor::MissCursor(const ir::Program& program,
                       const layout::LayoutTable& layout,
                       const GeneratorOptions& options)
    : program_(&program), layout_(&layout), options_(options),
      space_(program), geometry_(program.arrays.size()),
      cache_(options.cache_bytes),
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

void MissCursor::walk_nest(std::vector<MissRecord>& out) {
  BlockTouch touch;
  while (cursor_.next_in_nest(touch)) {
    const CacheBlock* anchor = cursor_.anchor();
    if (cache_.hit(touch.array, touch.block, anchor)) continue;
    const Geometry& g = geometry_[static_cast<std::size_t>(touch.array)];
    const Bytes begin = touch.block * g.block_size;
    const Bytes length = std::min(g.block_size, g.file_size - begin);
    cache_.insert(touch.array, touch.block, length, anchor);

    // A block never spans disks: block size divides the stripe size.
    const layout::PhysicalLocation loc = layout_->locate(touch.array, begin);
    MissRecord& miss = out.emplace_back();
    miss.global_iter =
        space_.global_of(ir::IterationPoint{touch.nest, touch.flat_iter});
    miss.disk = loc.disk;
    miss.start_sector = loc.sector();
    miss.size_bytes = length;
    miss.kind = touch.kind;
    miss.array = touch.array;
    miss.block = touch.block;
  }
}

// Nest replay (DESIGN.md §9).  Whether a nest evicts one of its own blocks
// follows from its shape (its distinct blocks outgrow the cache), so the
// verdict is kept per shape and holds for a replayed nest too.
void MissCursor::walk(std::vector<MissRecord>& out) {
  const std::vector<int> shape = shape_ids(*program_);
  // Per shape: whether its nests evict one of their own blocks, known
  // once one of them is walked.
  std::vector<bool> evicts_own(shape.size());
  std::vector<Twin> twins;
  for (int n = cursor_.nest(); n < space_.nest_count(); n = cursor_.nest()) {
    const auto i = static_cast<std::size_t>(n);
    const bool after_reset =
        n > 0 && evicts_own[static_cast<std::size_t>(shape[i - 1])];
    const auto twin =
        after_reset ? std::find_if(twins.begin(), twins.end(),
                                   [&](const Twin& t) {
                                     return t.before == shape[i - 1] &&
                                            t.shape == shape[i];
                                   })
                    : twins.end();
    if (twin != twins.end()) {
      const std::int64_t shift = space_.nest_begin(n) - twin->begin;
      for (std::size_t m = twin->first; m < twin->last; ++m) {
        MissRecord miss = out[m];
        miss.global_iter += shift;
        out.push_back(miss);
      }
      cache_ = twin->cache;
      replayed_skips_ += twin->skipped;
      replayed_pins_ += twin->pinned;
      ++nests_replayed_;
    } else {
      const std::size_t first = out.size();
      const std::int64_t skipped = cursor_.sweeps_skipped();
      const std::int64_t pinned = cursor_.sweeps_pinned();
      cache_.begin_nest(n);
      walk_nest(out);
      evicts_own[static_cast<std::size_t>(shape[i])] = cache_.evicted_own();
      if (after_reset) {
        twins.push_back(Twin{shape[i - 1], shape[i], first, out.size(),
                             space_.nest_begin(n),
                             cursor_.sweeps_skipped() - skipped,
                             cursor_.sweeps_pinned() - pinned, cache_});
      }
    }
    cursor_.leave_nest();
  }
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
  cursor.walk(*misses);
  static obs::MetricsRegistry::Counter& walks_run =
      obs::MetricsRegistry::global().counter("trace.walks_run");
  static obs::MetricsRegistry::Counter& sweeps_skipped =
      obs::MetricsRegistry::global().counter("trace.sweeps_skipped");
  static obs::MetricsRegistry::Counter& sweeps_pinned =
      obs::MetricsRegistry::global().counter("trace.sweeps_pinned");
  static obs::MetricsRegistry::Counter& nests_replayed =
      obs::MetricsRegistry::global().counter("trace.nests_replayed");
  walks_run.fetch_add(1, std::memory_order_relaxed);
  sweeps_skipped.fetch_add(cursor.sweeps_skipped(),
                           std::memory_order_relaxed);
  sweeps_pinned.fetch_add(cursor.sweeps_pinned(), std::memory_order_relaxed);
  nests_replayed.fetch_add(cursor.nests_replayed(),
                           std::memory_order_relaxed);
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

Trace add_directives(const Trace& base, const ir::Program& program,
                     const GeneratorOptions& options) {
  program.validate();
  SDPM_REQUIRE(base.power_events.empty(),
               str_printf("add_directives: the base trace carries %zu power "
                          "events; it must be a trace without directives",
                          base.power_events.size()));
  const Timeline actual =
      Timeline::with_noise(program, options.noise, options.clock_hz);
  SDPM_REQUIRE(base.compute_total_ms == actual.total(),
               str_printf("add_directives: the base trace's compute total "
                          "(%.17g ms) is not the timeline's of program '%s' "
                          "(%.17g ms): it was made under another program, "
                          "noise or clock",
                          base.compute_total_ms, program.name.c_str(),
                          actual.total()));
  const TimeMs tm = options.power_call_overhead_ms;
  const std::vector<std::int64_t> directive_globals =
      directive_globals_of(program, actual.space());

  Trace trace;
  trace.total_disks = base.total_disks;
  trace.power_events =
      power_events_of(program, actual, directive_globals, tm);
  trace.requests.reserve(base.requests.size());
  std::size_t directives_before = 0;
  std::int64_t previous_iter = 0;
  for (const Request& r : base.requests) {
    SDPM_REQUIRE(r.global_iter >= previous_iter,
                 "misses must come in program order: iteration " +
                     std::to_string(r.global_iter) + " after " +
                     std::to_string(previous_iter));
    previous_iter = r.global_iter;
    while (directives_before < directive_globals.size() &&
           directive_globals[directives_before] <= r.global_iter) {
      ++directives_before;
    }
    Request& shifted = trace.requests.emplace_back(r);
    shifted.arrival_ms += tm * static_cast<double>(directives_before);
  }
  trace.bytes_transferred = base.bytes_transferred;
  trace.compute_total_ms =
      base.compute_total_ms +
      tm * static_cast<double>(program.directives.size());
  return trace;
}

}  // namespace sdpm::trace
