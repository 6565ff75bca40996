#include "experiments/trace_cache.h"

#include "obs/metrics.h"

namespace sdpm::experiments {

namespace {

void note_lookup(bool hit) {
  static obs::MetricsRegistry::Counter& hits =
      obs::MetricsRegistry::global().counter("trace_cache.hits");
  static obs::MetricsRegistry::Counter& misses =
      obs::MetricsRegistry::global().counter("trace_cache.misses");
  (hit ? hits : misses).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceKey trace_key_of(const ir::Program& program,
                      const layout::LayoutTable& layout,
                      const trace::GeneratorOptions& options) {
  // The access key fixes the nest and statement structure, so the timing
  // fields below follow it unambiguously.
  Fingerprint fp;
  fp.mix(trace::access_key_of(program, layout, options));
  for (const ir::LoopNest& nest : program.nests) {
    for (const ir::Statement& stmt : nest.body) fp.mix(stmt.cycles);
    fp.mix(nest.loop_overhead_cycles);
  }
  fp.mix(static_cast<std::uint64_t>(program.directives.size()));
  for (const ir::PlacedDirective& pd : program.directives) {
    fp.mix(pd.point.nest_index);
    fp.mix(pd.point.flat_iteration);
    fp.mix(static_cast<std::uint64_t>(pd.directive.kind));
    fp.mix(pd.directive.disk);
    fp.mix(pd.directive.rpm_level);
  }
  fp.mix(options.noise.sigma);
  fp.mix(options.noise.seed);
  fp.mix(options.clock_hz);
  fp.mix(options.power_call_overhead_ms);
  fp.mix(options.prefetch_lead_ms);
  return fp.key();
}

TraceCache::TraceCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceCache& TraceCache::global() {
  static TraceCache cache;
  return cache;
}

std::shared_ptr<const trace::Trace> TraceCache::get_or_generate(
    const ir::Program& program, const layout::LayoutTable& layout,
    const trace::GeneratorOptions& options) {
  // Fingerprint once, before locking: a scheduled program carries tens of
  // thousands of directives, and every worker shares this mutex.
  const TraceKey key = trace_key_of(program, layout, options);
  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      note_lookup(/*hit=*/true);
      return it->second->trace;
    }
  }

  // Generate outside the lock so concurrent cells generating *different*
  // traces proceed in parallel.  Two cells racing on the same key may both
  // generate; the second insert simply refreshes the entry — traces for
  // equal keys are bit-identical, so either copy is correct.
  auto trace = std::make_shared<const trace::Trace>(
      trace::TraceGenerator(program, layout, options).generate());

  std::lock_guard lock(mutex_);
  note_lookup(/*hit=*/false);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->trace = trace;
    return trace;
  }
  lru_.push_front(Entry{key, trace});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return trace;
}

void TraceCache::clear() {
  {
    std::lock_guard lock(mutex_);
    lru_.clear();
    index_.clear();
  }
  trace::clear_access_memo();
}

std::size_t TraceCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

}  // namespace sdpm::experiments
