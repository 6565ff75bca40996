// Block-granular access walker.
//
// Enumerates, in program order, every (iteration, array, block) touch a
// program makes at a given cache-block granularity.  The innermost loop of
// each nest is never executed element-by-element: because every subscript
// is affine, the byte offset of a reference is a linear function
// off(t) = A + B*t of the innermost trip index t, and the walker jumps
// directly from block boundary to block boundary in closed form.  Touches
// from different references of the same inner sweep are merged back into
// iteration order with a small heap, so downstream consumers (buffer cache,
// trace timestamps, DAP) observe the true program order.
//
// The walk has one shape: the pull-based TouchCursor, which yields one
// touch per next() call and holds O(refs-per-nest) state, so the buffer
// cache consumes the touches without the full touch list ever being
// materialized.
//
// One loop further out the same affine reasoning proves reuse.  Given the
// capacity of the LRU buffer cache its consumer simulates, the cursor
// skips every outer sweep that provably replays the previous sweep's
// (array, block) sequence and hits that cache on every touch; such a sweep
// would change neither the cache nor the miss stream.  It jumps over a run
// of such sweeps in one step, and it walks a sweep whose one multi-block
// reference repeats itself through its trip-0 touches alone ("pinned").
// See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "ir/program.h"
#include "trace/buffer_cache.h"
#include "util/units.h"

namespace sdpm::trace {

/// One cache-block touch: the first iteration at which a reference enters a
/// new block of an array.
struct BlockTouch {
  int nest = 0;                 ///< nest index within the program
  std::int64_t flat_iter = 0;   ///< flat iteration within the nest
  ir::ArrayId array = -1;
  std::int64_t block = 0;       ///< block index within the array's file
  ir::AccessKind kind = ir::AccessKind::kRead;
  int statement = 0;            ///< statement index (provenance)
};

/// Block size to use per array, in bytes.  Must divide into the array's
/// element size evenly (block_size % element_size == 0).
using BlockSizeFn = std::function<Bytes(ir::ArrayId)>;

/// Pull-based walk over all nests of a program: next() yields block-entry
/// events one at a time, in program order.  Holds O(refs-per-nest) state —
/// independent of the trace length.  The program must outlive the cursor.
///
/// `cache_capacity` is the byte capacity of the LRU cache (BufferCache)
/// that the caller feeds every touch into.  At the default, 0, the cursor
/// enumerates every touch.  When it is nonzero, the cursor leaves out each
/// outer sweep o > 0 whose touches provably repeat sweep o-1's (array,
/// block) sequence and all hit that cache: every reference keeps its block
/// range, the merged order cannot change, and the summed ranges fit in the
/// capacity.  It also pins each sweep whose one multi-block reference
/// provably re-enters, all hits, the blocks it entered after trip 0 in the
/// previous sweep: a pinned sweep yields only its trip-0 touches, and
/// anchor() says where each goes in the LRU.  Only a consumer that
/// simulates exactly such a cache — reads nothing of a hit and places
/// every touch as anchor() says — may pass a capacity; any other consumer
/// would silently lose touches.
class TouchCursor {
 public:
  TouchCursor(const ir::Program& program, BlockSizeFn block_size_of,
              Bytes cache_capacity = 0);
  ~TouchCursor();

  TouchCursor(TouchCursor&&) noexcept;
  TouchCursor& operator=(TouchCursor&&) noexcept;

  /// Advance to the next touch; returns false when the walk is complete.
  bool next(BlockTouch& out);

  /// Where the touch next() last yielded goes in the LRU: null for the
  /// front, else the resident block it goes right below (a pinned sweep's
  /// touch; never without a cache capacity).
  const CacheBlock* anchor() const;

  /// Outer sweeps left out so far (always 0 without a cache capacity).
  std::int64_t sweeps_skipped() const;

  /// Outer sweeps walked pinned so far (always 0 without a cache capacity).
  std::int64_t sweeps_pinned() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sdpm::trace
