#include "trace/walker.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <vector>

#include "util/error.h"

namespace sdpm::trace {

namespace {

/// Static (per-nest) description of one array reference.
struct RefInfo {
  int statement = 0;
  int ref_index = 0;
  ir::ArrayId array = -1;
  ir::AccessKind kind = ir::AccessKind::kRead;
  Bytes file_size = 0;
  Bytes block_size = 0;
  /// Byte-offset delta per innermost trip (B in off(t) = A + B*t).
  Bytes inner_stride = 0;
  /// Linear-index coefficient of each loop (outer-to-inner, excluding the
  /// contribution folded into inner_stride), plus the constant part, both
  /// in *bytes*.
  std::vector<Bytes> outer_coef;  // per loop, bytes per iterator unit
  Bytes const_bytes = 0;
  /// Byte-offset delta from one outer sweep to the next inside the
  /// innermost outer loop (0 in a one-deep nest).
  Bytes sweep_stride = 0;
  /// Whether another reference of the nest names the same array.
  bool shares_array = false;
};

/// A lazy stream of block-entry events for one reference within one inner
/// sweep: emits (trip, block) pairs in increasing trip order.
struct RefStream {
  const RefInfo* info = nullptr;
  Bytes base = 0;          // A: byte offset at trip 0
  std::int64_t lo = 0;     // lowest block the sweep touches
  std::int64_t hi = 0;     // highest block the sweep touches
  std::int64_t trips = 0;  // innermost trip count
  std::int64_t next_trip = 0;
  std::int64_t current_block = -1;  // block emitted at next_trip
  bool exhausted = false;

  void start(Bytes a, std::int64_t t) {
    base = a;
    trips = t;
    next_trip = 0;
    exhausted = trips <= 0;
    if (!exhausted) current_block = a / info->block_size;
  }

  /// Advance to the next block-entry event; sets exhausted when the sweep
  /// has no further new blocks.
  void advance() {
    const Bytes b = info->inner_stride;
    const Bytes bs = info->block_size;
    if (b == 0) {
      exhausted = true;
      return;
    }
    const Bytes off = base + b * next_trip;
    std::int64_t t_next;
    if (b > 0) {
      const Bytes target = (current_block + 1) * bs;  // first byte of next block
      t_next = next_trip + (target - off + b - 1) / b;
    } else {
      // Need off' <= current_block*bs - 1; drop of (off - current_block*bs + 1).
      const Bytes drop = off - current_block * bs + 1;
      t_next = next_trip + (drop + (-b) - 1) / (-b);
    }
    if (t_next >= trips) {
      exhausted = true;
      return;
    }
    next_trip = t_next;
    current_block = (base + b * t_next) / bs;
  }
};

struct HeapEntry {
  std::int64_t trip;
  int statement;
  int ref_index;
  std::size_t stream;

  bool operator>(const HeapEntry& other) const {
    if (trip != other.trip) return trip > other.trip;
    if (statement != other.statement) return statement > other.statement;
    return ref_index > other.ref_index;
  }
};

}  // namespace

// The cursor holds exactly the per-nest state of the original recursive
// walk — ref table, ref streams, the inner-sweep merge heap, and the outer
// odometer — so next() replays the original loop structure one emission at
// a time and yields the identical touch order, less the sweeps that
// start_sweep proves to be all-hit repeats and the touches of pinned
// sweeps that provably hit, when given a cache capacity.
struct TouchCursor::Impl {
  const ir::Program* program = nullptr;
  BlockSizeFn block_size_of;
  Bytes capacity = 0;        // LRU capacity for the sweep skip; 0 = off
  std::int64_t skipped = 0;  // outer sweeps skipped so far
  std::int64_t pinned = 0;   // outer sweeps walked pinned so far

  int nest = 0;  // current nest index; nest_count() when done

  // Per-nest state (rebuilt by enter_nest):
  std::vector<RefInfo> refs;
  std::vector<RefStream> streams;
  std::vector<std::int64_t> trip;   // outer odometer trips
  std::vector<std::int64_t> value;  // outer odometer iterator values
  std::int64_t inner_trips = 0;
  std::int64_t outer_total = 0;
  std::int64_t o = 0;    // current outer sweep index
  std::int64_t run = 0;  // sweeps after o that skip as one run
  /// (p4): the one multi-block reference of the last sweep not skipped,
  /// or -1 when it had none or several.
  int sole_multi_ref = -1;
  bool pinned_sweep = false;  // the sweep in the heap is pinned
  CacheBlock anchor;          // where a pinned sweep's touches go
  std::vector<HeapEntry> heap;  // min-heap under std::greater

  int nest_count() const {
    return static_cast<int>(program->nests.size());
  }

  void enter_nest() {
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    const int depth = nest_ir.depth();
    const ir::Loop& inner =
        nest_ir.loops[static_cast<std::size_t>(depth - 1)];
    inner_trips = inner.trip_count();

    refs.clear();
    for (int si = 0; si < static_cast<int>(nest_ir.body.size()); ++si) {
      const ir::Statement& stmt =
          nest_ir.body[static_cast<std::size_t>(si)];
      for (int ri = 0; ri < static_cast<int>(stmt.refs.size()); ++ri) {
        const ir::ArrayRef& ref = stmt.refs[static_cast<std::size_t>(ri)];
        const ir::Array& array = program->array(ref.array);
        RefInfo info;
        info.statement = si;
        info.ref_index = ri;
        info.array = ref.array;
        info.kind = ref.kind;
        info.file_size = array.size_bytes();
        info.block_size = block_size_of(ref.array);
        SDPM_REQUIRE(info.block_size > 0 &&
                         info.block_size % array.element_size == 0,
                     "block size must be a positive multiple of the element "
                     "size of array '" + array.name + "'");
        info.outer_coef.assign(static_cast<std::size_t>(depth), 0);
        for (int d = 0; d < array.rank(); ++d) {
          const ir::AffineExpr& sub =
              ref.subscripts[static_cast<std::size_t>(d)];
          const Bytes dim_bytes = array.dim_stride(d) * array.element_size;
          info.const_bytes += sub.constant * dim_bytes;
          for (int k = 0; k < depth; ++k) {
            const std::int64_t c = sub.coef(static_cast<std::size_t>(k));
            if (c == 0) continue;
            info.outer_coef[static_cast<std::size_t>(k)] += c * dim_bytes;
          }
        }
        // Fold the innermost loop's contribution into the stride; the
        // remaining outer_coef entry for the innermost loop applies to its
        // *lower bound* contribution via the iterator value at trip 0.
        info.inner_stride =
            info.outer_coef[static_cast<std::size_t>(depth - 1)] *
            inner.step;
        if (depth >= 2) {
          const auto k = static_cast<std::size_t>(depth - 2);
          info.sweep_stride = info.outer_coef[k] * nest_ir.loops[k].step;
        }
        for (RefInfo& other : refs) {
          if (other.array != info.array) continue;
          other.shares_array = true;
          info.shares_array = true;
        }
        refs.push_back(std::move(info));
      }
    }

    trip.assign(static_cast<std::size_t>(depth), 0);
    value.resize(static_cast<std::size_t>(depth));
    for (int k = 0; k < depth; ++k) {
      value[static_cast<std::size_t>(k)] =
          nest_ir.loops[static_cast<std::size_t>(k)].lower;
    }

    streams.assign(refs.size(), RefStream{});
    for (std::size_t i = 0; i < refs.size(); ++i) streams[i].info = &refs[i];

    outer_total = nest_ir.iteration_count() / inner_trips;
    o = 0;
    run = 0;
    sole_multi_ref = -1;
    if (outer_total > 0) start_sweep();
  }

  /// Start outer sweep o: validate every reference's range, then queue each
  /// reference's first touch — unless the sweep is provably a cache-hit
  /// replay of sweep o-1, in which case it is skipped and queues nothing.
  /// Sweep o repeats sweep o-1's (array, block) sequence when
  ///   (a) every reference keeps its block range [lo, hi], and
  ///   (b) at most one reference spans more than one block, or no
  ///       multi-block reference moved its base (single-block references
  ///       all enter at trip 0, so the merged order is fixed), and
  ///   (c) a multi-block reference that moved has |stride| <= block size,
  ///       so it enters every block of its range once, in order;
  /// and all of those touches hit an LRU of `capacity` bytes when
  ///   (d) the capacity is nonzero and the summed ranges fit in it.
  /// After a sweep whose distinct blocks fit, all of them are resident, so
  /// replaying the same sequence hits every time and leaves the recency
  /// order as it was.
  ///
  /// A sweep o > 0 that is not skipped is pinned — it queues only each
  /// reference's trip-0 touch, each placed right below `anchor` — when
  ///   (p1) the capacity is nonzero and the summed ranges fit in it;
  ///   (p2) exactly one reference R spans more than one block, and
  ///        |R's stride| <= its block size;
  ///   (p3) R keeps its block range;
  ///   (p4) the last sweep not skipped had R as its one multi-block
  ///        reference (it has sweep o's ranges, so by (p1) and (p2) it fit
  ///        and R entered its blocks in order);
  ///   (p5) no other reference of the nest names R's array.
  /// By (p1), (p2) and (p4), the blocks R entered after trip 0 of that
  /// sweep are the LRU's most recent entries, in entry order, and sweep o
  /// re-enters them in that order (p3) after all its trip-0 touches, every
  /// one a hit: the insertions evict from the tail and, as the sweep fits,
  /// never reach them, and no trip-0 touch lands on one of them (p5).  So
  /// they end on top in the same order, with the trip-0 touches right below
  /// in touch order; `anchor` is the deepest of them, the block R enters
  /// first after trip 0.  Every miss comes from a trip-0 touch.
  ///
  /// Each check is O(refs) and enumerates no touch; so is skip_run(), which
  /// then counts the following sweeps that the checks would skip.
  void start_sweep() {
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    const int depth = nest_ir.depth();
    heap.clear();
    bool same_ranges = true;
    int multi_block = 0;
    int multi_ref = -1;
    bool multi_same_range = false;
    bool multi_moved = false;
    bool moved_in_order = true;
    Bytes footprint = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const RefInfo& info = refs[i];
      // Base offset of the reference at innermost trip 0.
      Bytes a = info.const_bytes;
      for (int k = 0; k < depth; ++k) {
        a += info.outer_coef[static_cast<std::size_t>(k)] *
             value[static_cast<std::size_t>(k)];
      }
      // Validate the whole sweep's range once (offsets are linear in t).
      const Bytes last = a + info.inner_stride * (inner_trips - 1);
      SDPM_REQUIRE(a >= 0 && a < info.file_size && last >= 0 &&
                       last < info.file_size,
                   "array reference out of bounds in nest '" + nest_ir.name +
                       "'");
      RefStream& stream = streams[i];
      const std::int64_t lo = std::min(a, last) / info.block_size;
      const std::int64_t hi = std::max(a, last) / info.block_size;
      const bool same_range = lo == stream.lo && hi == stream.hi;
      same_ranges = same_ranges && same_range;
      if (hi > lo) {
        ++multi_block;
        multi_ref = static_cast<int>(i);
        multi_same_range = same_range;
        if (a != stream.base) {
          multi_moved = true;
          moved_in_order = moved_in_order &&
                           std::abs(info.inner_stride) <= info.block_size;
        }
      }
      footprint += (hi - lo + 1) * info.block_size;
      stream.base = a;
      stream.lo = lo;
      stream.hi = hi;
    }
    const bool fits = capacity > 0 && footprint <= capacity;
    run = skip_run(fits, multi_block);
    if (o > 0 && same_ranges &&                // (a)
        (multi_block <= 1 || !multi_moved) &&  // (b)
        moved_in_order && fits) {              // (c), (d)
      ++skipped;
      return;
    }
    const bool one_in_order =
        multi_block == 1 &&
        std::abs(refs[static_cast<std::size_t>(multi_ref)].inner_stride) <=
            refs[static_cast<std::size_t>(multi_ref)].block_size;
    pinned_sweep = o > 0 && fits && one_in_order &&    // (p1), (p2)
                   multi_same_range &&                 // (p3)
                   sole_multi_ref == multi_ref &&      // (p4)
                   !refs[static_cast<std::size_t>(multi_ref)]
                        .shares_array;                 // (p5)
    sole_multi_ref = multi_block == 1 ? multi_ref : -1;
    if (pinned_sweep) {
      ++pinned;
      const RefStream& r = streams[static_cast<std::size_t>(multi_ref)];
      anchor = CacheBlock{r.info->array,
                          r.info->inner_stride > 0 ? r.lo + 1 : r.hi - 1};
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      RefStream& stream = streams[i];
      stream.start(stream.base, inner_trips);
      if (!stream.exhausted) {
        heap.push_back(HeapEntry{stream.next_trip, stream.info->statement,
                                 stream.info->ref_index, i});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }

  /// How many sweeps after sweep o the checks (a)-(d) would skip, in
  /// O(refs).  Inside the innermost outer loop each base moves by its
  /// sweep_stride per sweep, so (b)-(d) hold for every following sweep or
  /// for none, and the offsets are linear in the sweep count: a reference
  /// keeps its block range and stays inside its array up to a bound that
  /// its first and last offsets give.  The run ends at that loop's last
  /// trip, and before the first sweep that would leave an array, which
  /// start_sweep then rejects with the located error.
  std::int64_t skip_run(bool fits, int multi_block) const {
    const std::size_t depth = trip.size();
    if (depth < 2 || !fits) return 0;
    const std::size_t k = depth - 2;
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    std::int64_t n = nest_ir.loops[k].trip_count() - 1 - trip[k];
    for (const RefStream& stream : streams) {
      const RefInfo& info = *stream.info;
      const Bytes c = info.sweep_stride;
      if (c == 0) continue;
      const Bytes bs = info.block_size;
      if (stream.hi > stream.lo &&
          (multi_block > 1 || std::abs(info.inner_stride) > bs)) {
        return 0;  // (b), (c)
      }
      const Bytes last = stream.base + info.inner_stride * (inner_trips - 1);
      const Bytes low = std::min(stream.base, last);
      const Bytes high = std::max(stream.base, last);
      if (c > 0) {
        const Bytes top = std::min((stream.hi + 1) * bs, info.file_size) - 1;
        n = std::min({n, ((stream.lo + 1) * bs - 1 - low) / c,
                      (top - high) / c});
      } else {
        n = std::min({n, (low - stream.lo * bs) / -c,
                      (high - stream.hi * bs) / -c});
      }
    }
    return n;
  }

  /// Step over the run's sweeps: each would touch nothing, so only the
  /// odometer, the bases and the counts move.
  void skip_run_sweeps() {
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    const std::size_t k = trip.size() - 2;
    trip[k] += run;
    value[k] += run * nest_ir.loops[k].step;
    for (RefStream& stream : streams) {
      stream.base += run * stream.info->sweep_stride;
    }
    o += run;
    skipped += run;
    run = 0;
  }

  /// Advance the outer odometer (innermost outer loop fastest).
  void advance_outer() {
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    const int depth = nest_ir.depth();
    for (int k = depth - 2; k >= 0; --k) {
      const auto idx = static_cast<std::size_t>(k);
      const ir::Loop& loop = nest_ir.loops[idx];
      if (++trip[idx] < loop.trip_count()) {
        value[idx] += loop.step;
        break;
      }
      trip[idx] = 0;
      value[idx] = loop.lower;
    }
  }

  bool next(BlockTouch& out) {
    for (;;) {
      if (nest >= nest_count()) return false;
      if (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const HeapEntry top = heap.back();
        heap.pop_back();
        RefStream& stream = streams[top.stream];
        const RefInfo& info = *stream.info;
        out.nest = nest;
        out.flat_iter = o * inner_trips + stream.next_trip;
        out.array = info.array;
        out.block = stream.current_block;
        out.kind = info.kind;
        out.statement = info.statement;
        if (pinned_sweep) return true;  // its trip-0 touch is its last
        stream.advance();
        if (!stream.exhausted) {
          heap.push_back(HeapEntry{stream.next_trip, info.statement,
                                   info.ref_index, top.stream});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
        return true;
      }
      if (run > 0) skip_run_sweeps();
      if (o + 1 < outer_total) {
        advance_outer();
        ++o;
        start_sweep();
        continue;
      }
      ++nest;
      if (nest < nest_count()) enter_nest();
    }
  }
};

TouchCursor::TouchCursor(const ir::Program& program, BlockSizeFn block_size_of,
                         Bytes cache_capacity)
    : impl_(std::make_unique<Impl>()) {
  SDPM_REQUIRE(cache_capacity >= 0, "cache capacity must be non-negative");
  impl_->program = &program;
  impl_->block_size_of = std::move(block_size_of);
  impl_->capacity = cache_capacity;
  if (impl_->nest_count() > 0) impl_->enter_nest();
}

TouchCursor::~TouchCursor() = default;
TouchCursor::TouchCursor(TouchCursor&&) noexcept = default;
TouchCursor& TouchCursor::operator=(TouchCursor&&) noexcept = default;

bool TouchCursor::next(BlockTouch& out) { return impl_->next(out); }

const CacheBlock* TouchCursor::anchor() const {
  return impl_->pinned_sweep ? &impl_->anchor : nullptr;
}

std::int64_t TouchCursor::sweeps_skipped() const { return impl_->skipped; }

std::int64_t TouchCursor::sweeps_pinned() const { return impl_->pinned; }

}  // namespace sdpm::trace
