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
// structure shares a single walk.  A scheduled program's trace need not
// be generated at all: add_directives builds it from the trace of the
// same program without directives.
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

/// The access walk + buffer cache: walk() appends every miss in program
/// order.  It hands its cache capacity to the TouchCursor, which then skips
/// every outer sweep that provably hits the cache on each touch — such a
/// sweep adds no miss and leaves the LRU as it was — and pins every sweep
/// whose touches after trip 0 provably hit, yielding only its trip-0
/// touches with the LRU position that keeps the cache as the whole sweep
/// would leave it.  One level up it replays whole nests: when nests k-1
/// and k have the access shapes (the per-nest part of access_key_of) of an
/// earlier pair j-1, j and nest j-1 evicted one of its own blocks, nest k
/// misses exactly as nest j did, shifted by nest_begin(k) - nest_begin(j),
/// and leaves the cache as nest j left it (DESIGN.md §9).  So the miss
/// stream is the one a touch-by-touch walk produces.  Each array's block
/// size and file size are resolved once per walk, when a nest first names
/// the array.  The program and layout must outlive the cursor.
class MissCursor {
 public:
  MissCursor(const ir::Program& program, const layout::LayoutTable& layout,
             const GeneratorOptions& options);

  MissCursor(const MissCursor&) = delete;
  MissCursor& operator=(const MissCursor&) = delete;

  /// Walk every nest not walked yet, appending its misses to `out`.  A
  /// replayed nest copies its twin's misses from `out` itself, so the
  /// replay memo holds index ranges and one cache copy per nest pair, and
  /// lives and dies with this call.
  void walk(std::vector<MissRecord>& out);

  /// Outer sweeps the walk has skipped as all-hit repeats so far, a
  /// replayed nest's counted as its twin's.
  std::int64_t sweeps_skipped() const {
    return cursor_.sweeps_skipped() + replayed_skips_;
  }

  /// Outer sweeps the walk has walked pinned so far, likewise.
  std::int64_t sweeps_pinned() const {
    return cursor_.sweeps_pinned() + replayed_pins_;
  }

  /// Nests replayed from an earlier twin instead of walked.
  std::int64_t nests_replayed() const { return nests_replayed_; }

 private:
  /// An array's block size and file size; block_size 0 until resolved.
  struct Geometry {
    Bytes block_size = 0;
    Bytes file_size = 0;
  };
  Bytes block_size_of(ir::ArrayId array);
  /// Walk the cursor's current nest to its end, appending its misses.
  void walk_nest(std::vector<MissRecord>& out);

  const ir::Program* program_;
  const layout::LayoutTable* layout_;
  GeneratorOptions options_;
  IterationSpace space_;
  std::vector<Geometry> geometry_;  // per array
  BufferCache cache_;
  TouchCursor cursor_;
  std::int64_t replayed_skips_ = 0;
  std::int64_t replayed_pins_ = 0;
  std::int64_t nests_replayed_ = 0;
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
/// agree exactly.  experiments::Runner's CM traces do not read it again:
/// they are built from the Base trace (add_directives).  Walks are
/// memoized by access_key_of in a process-wide, thread-safe LRU of
/// kAccessMemoCapacity entries; a hit returns the misses a fresh walk of
/// the same key produces.  A walk that throws is not memoized.  Each walk
/// actually run counts into the metrics registry's "trace.walks_run", the
/// sweeps it skipped into "trace.sweeps_skipped", the sweeps it pinned
/// into "trace.sweeps_pinned" and the nests it replayed into
/// "trace.nests_replayed".
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

/// The trace TraceGenerator(program, layout, options).generate() makes,
/// built from `base`: the trace of the same program without directives,
/// on the same layout under the same options.  Directives move no nest and
/// no miss, so each request is base's with Tm x (directives at or before
/// its iteration) added to its arrival, bit for bit, since a base arrival
/// is t(g) + Tm x 0 = t(g) + 0.0; so is the compute total, and the power
/// events are timed as generate() times them.  Makes the checks the
/// generator makes on the program (Program::validate, sorted directives,
/// requests in program order), and fails with a located error when `base`
/// carries power events or its compute total is not the program's
/// timeline's (a base trace of another program, noise or clock).
Trace add_directives(const Trace& base, const ir::Program& program,
                     const GeneratorOptions& options);

/// Resolve the per-array block size implied by `options` and the layout.
Bytes block_size_for(const layout::LayoutTable& layout, ir::ArrayId array,
                     const GeneratorOptions& options);

}  // namespace sdpm::trace
