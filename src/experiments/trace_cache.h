// Content-keyed trace cache.
//
// Bench sweeps revisit identical (program, layout, options) combinations
// across configurations.  The cache keys traces by a 128-bit fingerprint
// of everything that determines the generated trace bit for bit, so a hit
// is guaranteed to return the exact trace a fresh generation would
// produce.  experiments::Runner looks up one trace per cell here, the
// power-call-free trace that Base, TPM and DRPM replay; it builds each CM
// trace from that one with trace::add_directives instead, so scheduled
// programs, with their tens of thousands of directives, are neither
// fingerprinted nor kept here.
//
// Two keys, one mixer (util/fingerprint.h):
//   access key  trace::access_key_of: what the access walk reads (program
//               structure, per-array striping and file sizes, total disks,
//               block size and cache size).  It keys the process-wide
//               memo of miss streams under trace::collect_misses.
//   trace key   trace_key_of: the access key extended with the timing
//               fields (cycles, directives, noise, clock, power-call
//               overhead, prefetch lead).  It keys this cache.
// A trace-cache miss therefore usually costs only timestamping: the walk,
// which dominated generation, is reused from any earlier trace or DAP of
// the same program structure.  clear() covers both levels, on any
// instance: the access memo sits below every TraceCache, and clear() is
// the one way to start cold.
//
// Entries are shared_ptr<const Trace>: concurrently running sweep cells
// can hold the same trace while the LRU evicts it from the cache proper.
// All operations are thread-safe.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ir/program.h"
#include "layout/layout_table.h"
#include "trace/generator.h"
#include "trace/request.h"
#include "util/fingerprint.h"

namespace sdpm::experiments {

/// 128-bit content fingerprint of a (program, layout, options) triple.
using TraceKey = ContentKey;

/// Fingerprint the inputs of trace generation: the access key plus every
/// timing field.  Two triples with equal keys generate bit-identical
/// traces.  Names are excluded — they do not affect the trace.
TraceKey trace_key_of(const ir::Program& program,
                      const layout::LayoutTable& layout,
                      const trace::GeneratorOptions& options);

/// Thread-safe LRU cache of generated traces, keyed by content.
class TraceCache {
 public:
  explicit TraceCache(std::size_t capacity = 32);

  /// The process-wide instance shared by all Runners.
  static TraceCache& global();

  /// Return the cached trace for the triple, generating (and inserting) it
  /// on a miss.  Hits and misses count into the metrics registry
  /// ("trace_cache.hits"/"trace_cache.misses").
  std::shared_ptr<const trace::Trace> get_or_generate(
      const ir::Program& program, const layout::LayoutTable& layout,
      const trace::GeneratorOptions& options);

  /// Drop every cached trace and every memoized access walk.
  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    TraceKey key;
    std::shared_ptr<const trace::Trace> trace;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<TraceKey, std::list<Entry>::iterator, ContentKeyHash>
      index_;
};

}  // namespace sdpm::experiments
