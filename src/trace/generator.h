// Trace generator: program + disk layout -> I/O request trace.
//
// Mirrors the paper's trace generator (Figure 1): the compiler-transformed
// code is "executed" against the buffer-cache model; every miss becomes a
// timestamped request routed to a disk through the striping information.
// Power directives inserted by the compiler ride along as timestamped
// power events, each charging its call overhead (Tm) to the compute
// timeline.
//
// The generator reads the access walk through collect_misses, which
// memoizes it by access key: the walk reads no directive, cycle count or
// noise value, so every trace, DAP and compiler profile of one program
// structure shares a single walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/program.h"
#include "layout/layout_table.h"
#include "trace/buffer_cache.h"
#include "trace/iteration_space.h"
#include "trace/request.h"
#include "trace/timeline.h"
#include "trace/walker.h"
#include "util/fingerprint.h"

namespace sdpm::trace {

struct GeneratorOptions {
  /// Cache/request block size; 0 means "use each array's stripe size".
  /// When nonzero it must divide every array's stripe size.
  Bytes block_size = 0;
  /// Buffer cache capacity in bytes (0 disables the cache).  The default
  /// is small enough that no benchmark's cyclically-swept array group fits
  /// — matching the paper's premise that "each array reference causes a
  /// disk access unless the data is captured in the buffer cache" — while
  /// single privately-swept matrices (applu's W, wupwise's M2, mesa's
  /// STEX) do fit and stay resident within their nest.
  Bytes cache_bytes = mib(6);
  /// Per-nest cycle multipliers modelling the gap between the compiler's
  /// cycle estimates and the actual execution.  The *trace* always uses the
  /// actual timeline.
  CycleNoise noise = CycleNoise::none();
  double clock_hz = kDefaultClockHz;
  /// Overhead of one power-management call (Tm in paper Eq. 1).
  TimeMs power_call_overhead_ms = 0.02;
  /// Compiler-directed prefetch lead applied to every *read* request
  /// (extension; 0 reproduces the paper's no-prefetching assumption).
  TimeMs prefetch_lead_ms = 0;
};

/// A single cache-missing block access, before timestamping.  Exposed so
/// the compiler passes (core/) can run the identical access model when
/// predicting the disk access pattern.
struct MissRecord {
  std::int64_t global_iter = 0;
  int disk = 0;
  BlockNo start_sector = 0;
  Bytes size_bytes = 0;
  ir::AccessKind kind = ir::AccessKind::kRead;
  ir::ArrayId array = -1;
  std::int64_t block = 0;

  friend bool operator==(const MissRecord&, const MissRecord&) = default;
};

/// Pull-based access walk + buffer cache: next() yields every miss in
/// program order, one at a time, with memory independent of the trace
/// length; collect_misses materializes it.  It hands its cache capacity
/// to the TouchCursor, which then skips every outer sweep that provably
/// hits the cache on each touch — such a sweep adds no miss and leaves the
/// LRU as it was — and pins every sweep whose touches after trip 0
/// provably hit, yielding only its trip-0 touches with the LRU position
/// that keeps the cache as the whole sweep would leave it.  So the miss
/// stream is the one a touch-by-touch walk produces.  Each array's block
/// size and file size are resolved once per walk, when a nest first names
/// the array.  The program and layout must outlive the cursor.
class MissCursor {
 public:
  MissCursor(const ir::Program& program, const layout::LayoutTable& layout,
             const GeneratorOptions& options);

  MissCursor(const MissCursor&) = delete;
  MissCursor& operator=(const MissCursor&) = delete;

  /// Advance to the next cache miss; false when the walk is complete.
  bool next(MissRecord& out);

  /// Outer sweeps the walk has skipped as all-hit repeats so far.
  std::int64_t sweeps_skipped() const { return cursor_.sweeps_skipped(); }

  /// Outer sweeps the walk has walked pinned so far.
  std::int64_t sweeps_pinned() const { return cursor_.sweeps_pinned(); }

 private:
  /// An array's block size and file size; block_size 0 until resolved.
  struct Geometry {
    Bytes block_size = 0;
    Bytes file_size = 0;
  };
  Bytes block_size_of(ir::ArrayId array);

  const layout::LayoutTable* layout_;
  GeneratorOptions options_;
  IterationSpace space_;
  std::vector<Geometry> geometry_;  // per array
  BufferCache cache_;
  TouchCursor cursor_;
};

/// 128-bit fingerprint of exactly what the access walk reads:
///   - each array's extents, element size and storage order;
///   - each nest's loop bounds and steps, and its statements' references
///     in order (array, kind, subscripts);
///   - each array's striping and file size, and the total disk count;
///   - GeneratorOptions::block_size and cache_bytes.
/// Statement and loop-overhead cycles, directives, names, noise, clock_hz,
/// power_call_overhead_ms and prefetch_lead_ms only move timestamps, so
/// they are left out: programs and options differing only in those walk
/// the identical miss stream.
using AccessKey = ContentKey;
AccessKey access_key_of(const ir::Program& program,
                        const layout::LayoutTable& layout,
                        const GeneratorOptions& options);

/// Number of walks the process-wide access memo keeps.
inline constexpr std::size_t kAccessMemoCapacity = 8;

/// Every miss of the access walk + buffer cache, in program order: the one
/// materialized access walk.  The trace generator, the DAP analysis (and
/// through it the scheduler and the analyzer) and the compiler's tiling and
/// PDC profiles all read it, so the compiler's model and the "hardware"
/// agree exactly.  Walks are memoized by access_key_of in a process-wide,
/// thread-safe LRU of kAccessMemoCapacity entries; a hit returns the misses
/// a fresh walk of the same key produces.  A walk that throws is not
/// memoized.  Each walk actually run counts into the metrics registry's
/// "trace.walks_run", the sweeps it skipped into "trace.sweeps_skipped"
/// and the sweeps it pinned into "trace.sweeps_pinned".
std::shared_ptr<const std::vector<MissRecord>> collect_misses(
    const ir::Program& program, const layout::LayoutTable& layout,
    const GeneratorOptions& options);

/// Drop every memoized walk.  experiments::TraceCache::clear() calls this,
/// so clearing the trace cache starts the next job cold.
void clear_access_memo();

class TraceGenerator {
 public:
  TraceGenerator(const ir::Program& program,
                 const layout::LayoutTable& layout,
                 GeneratorOptions options = {});

  /// Generate the full trace (requests + power events + compute total).
  Trace generate() const;

  /// The actual-execution timeline used for timestamps.
  const Timeline& actual_timeline() const { return actual_; }

 private:
  const ir::Program& program_;
  const layout::LayoutTable& layout_;
  GeneratorOptions options_;
  Timeline actual_;
};

/// Resolve the per-array block size implied by `options` and the layout.
Bytes block_size_for(const layout::LayoutTable& layout, ir::ArrayId array,
                     const GeneratorOptions& options);

}  // namespace sdpm::trace
