#include "trace/walker.h"

#include <algorithm>
#include <cstdlib>
#include <queue>
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
// start_sweep proves to be all-hit repeats when given a cache capacity.
struct TouchCursor::Impl {
  const ir::Program* program = nullptr;
  BlockSizeFn block_size_of;
  Bytes capacity = 0;        // LRU capacity for the sweep skip; 0 = off
  std::int64_t skipped = 0;  // outer sweeps skipped so far

  int nest = 0;  // current nest index; nest_count() when done

  // Per-nest state (rebuilt by enter_nest):
  std::vector<RefInfo> refs;
  std::vector<RefStream> streams;
  std::vector<std::int64_t> trip;   // outer odometer trips
  std::vector<std::int64_t> value;  // outer odometer iterator values
  std::int64_t inner_trips = 0;
  std::int64_t outer_total = 0;
  std::int64_t o = 0;  // current outer sweep index
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;

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
  /// order as it was.  Each check is O(refs) and enumerates no touch.
  void start_sweep() {
    const ir::LoopNest& nest_ir =
        program->nests[static_cast<std::size_t>(nest)];
    const int depth = nest_ir.depth();
    heap = {};
    bool same_ranges = true;
    int multi_block = 0;
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
      same_ranges = same_ranges && lo == stream.lo && hi == stream.hi;
      if (hi > lo) {
        ++multi_block;
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
    if (o > 0 && same_ranges &&                   // (a)
        (multi_block <= 1 || !multi_moved) &&     // (b)
        moved_in_order &&                         // (c)
        capacity > 0 && footprint <= capacity) {  // (d)
      ++skipped;
      return;
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      RefStream& stream = streams[i];
      stream.start(stream.base, inner_trips);
      if (!stream.exhausted) {
        heap.push(HeapEntry{stream.next_trip, stream.info->statement,
                            stream.info->ref_index, i});
      }
    }
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
        const HeapEntry top = heap.top();
        heap.pop();
        RefStream& stream = streams[top.stream];
        const RefInfo& info = *stream.info;
        out.nest = nest;
        out.flat_iter = o * inner_trips + stream.next_trip;
        out.array = info.array;
        out.block = stream.current_block;
        out.kind = info.kind;
        out.statement = info.statement;
        stream.advance();
        if (!stream.exhausted) {
          heap.push(HeapEntry{stream.next_trip, info.statement,
                              info.ref_index, top.stream});
        }
        return true;
      }
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

std::int64_t TouchCursor::sweeps_skipped() const { return impl_->skipped; }

}  // namespace sdpm::trace
