// Micro-benchmarks (google-benchmark): throughput of the substrate —
// trace generation (access walker + buffer cache), the closed-loop
// simulator (static kernel and virtual engine), the DAP analysis, the
// power-call scheduler, and the sweep engine (serial-uncached vs
// pooled-cached).
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/schedule.h"
#include "experiments/sweep.h"
#include "experiments/trace_cache.h"
#include "layout/layout_table.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "policy/base.h"
#include "service/telemetry.h"
#include "policy/drpm.h"
#include "sim/simulator.h"
#include "tests/forwarding_policy.h"
#include "trace/dap.h"
#include "trace/generator.h"
#include "workloads/benchmarks.h"

namespace {

using namespace sdpm;

const workloads::Benchmark& swim() {
  static const workloads::Benchmark b = workloads::make_swim();
  return b;
}

const layout::LayoutTable& swim_layout() {
  static const layout::LayoutTable table(swim().program, layout::Striping{},
                                         8);
  return table;
}

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    trace::TraceGenerator generator(swim().program, swim_layout());
    benchmark::DoNotOptimize(generator.generate().requests.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_DapAnalysis(benchmark::State& state) {
  for (auto _ : state) {
    const auto dap = trace::DiskAccessPattern::analyze(swim().program,
                                                       swim_layout());
    benchmark::DoNotOptimize(dap.disk_count());
  }
}
BENCHMARK(BM_DapAnalysis)->Unit(benchmark::kMillisecond);

void BM_BaseSimulation(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  for (auto _ : state) {
    policy::BasePolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_BaseSimulation)->Unit(benchmark::kMillisecond);

// The replay-throughput acceptance metric: single-disk swim replay (no
// striping fan-out, every request back to back through the hot loop) —
// the same workload `sdpm_cli bench --suite simulator` times.
void BM_SingleDiskReplay(benchmark::State& state) {
  const layout::LayoutTable table(swim().program, layout::Striping{0, 1,
                                                                   kib(64)},
                                  1);
  trace::TraceGenerator generator(swim().program, table);
  const trace::Trace trace = generator.generate();
  for (auto _ : state) {
    policy::BasePolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_SingleDiskReplay)->Unit(benchmark::kMillisecond);

// The same replay through the generic virtual engine: BasePolicy wrapped
// in a ForwardingPolicy, which has no static kernel.  The distance between
// this and BM_BaseSimulation is what static kernel dispatch buys.  Results
// are bit-identical either way (the equivalence suite pins that); only the
// speed differs.
void BM_BaseSimulationVirtualDispatch(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  for (auto _ : state) {
    test::ForwardingPolicy<policy::BasePolicy> policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_BaseSimulationVirtualDispatch)->Unit(benchmark::kMillisecond);

// The observability overhead contract (DESIGN.md §10): a sink-less tracer
// collapses to the null fast path and must stay within ~2% of
// BM_BaseSimulation; compare the three simulation cases in one run.
void BM_NullTracerSimulation(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  obs::EventTracer tracer;  // no sinks attached: resolves to nullptr
  sim::SimOptions options;
  options.tracer = &tracer;
  for (auto _ : state) {
    policy::BasePolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy,
                      options)
            .total_energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_NullTracerSimulation)->Unit(benchmark::kMillisecond);

// Tracing enabled: a CountingSink consumes every event.  Quantifies what a
// live sink costs relative to the null fast path (not bound by the 2%
// contract; attaching a sink is an explicit opt-in).
void BM_TracedSimulation(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  std::int64_t events = 0;
  for (auto _ : state) {
    obs::CountingSink sink;
    obs::EventTracer tracer;
    tracer.add_sink(sink);
    sim::SimOptions options;
    options.tracer = &tracer;
    policy::BasePolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy,
                      options)
            .total_energy);
    events = sink.total();
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_TracedSimulation)->Unit(benchmark::kMillisecond);

// The service telemetry contract (DESIGN.md §15): a null telemetry
// pointer through ServiceTelemetry::record_if must keep the daemon's
// per-job path within ~2% of the untelemetered replay — the same shape
// as the null-tracer contract above.  The workload is one job evaluation
// plus the five lifecycle stamps the daemon makes around it (admit,
// queue-wait, dispatch, eval, e2e); compare against BM_BaseSimulation.
void BM_ServiceTelemetryOverhead(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  service::ServiceTelemetry* telemetry = nullptr;  // disabled: branch only
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry);
    policy::BasePolicy policy;
    service::ServiceTelemetry::record_if(telemetry, service::Stage::kAdmit,
                                         0.01);
    service::ServiceTelemetry::record_if(telemetry,
                                         service::Stage::kQueueWait, 0.05);
    service::ServiceTelemetry::record_if(telemetry,
                                         service::Stage::kDispatch, 0.01);
    const double energy =
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy;
    benchmark::DoNotOptimize(energy);
    service::ServiceTelemetry::record_if(telemetry, service::Stage::kEval,
                                         1.0);
    service::ServiceTelemetry::record_if(telemetry,
                                         service::Stage::kEndToEnd, 1.0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_ServiceTelemetryOverhead)->Unit(benchmark::kMillisecond);

// Live telemetry: the same job shape with an active ServiceTelemetry
// recording into the sharded histograms.  Not bound by the 2% contract
// (the daemon always runs with telemetry on; this quantifies that the
// per-job stamp cost is noise next to evaluation).
void BM_ServiceTelemetryActive(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  service::ServiceTelemetry telemetry;
  service::ServiceTelemetry* t = &telemetry;
  for (auto _ : state) {
    policy::BasePolicy policy;
    service::ServiceTelemetry::record_if(t, service::Stage::kAdmit, 0.01);
    service::ServiceTelemetry::record_if(t, service::Stage::kQueueWait, 0.05);
    service::ServiceTelemetry::record_if(t, service::Stage::kDispatch, 0.01);
    const double energy =
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy;
    benchmark::DoNotOptimize(energy);
    service::ServiceTelemetry::record_if(t, service::Stage::kEval, 1.0);
    service::ServiceTelemetry::record_if(t, service::Stage::kEndToEnd, 1.0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_ServiceTelemetryActive)->Unit(benchmark::kMillisecond);

// Raw per-call cost of one record() into the lock-striped histogram —
// the number a capacity planner multiplies by stamps-per-job.
void BM_ServiceTelemetryRecord(benchmark::State& state) {
  service::ServiceTelemetry telemetry;
  double ms = 0.0;
  for (auto _ : state) {
    ms += 1e-4;
    telemetry.record(service::Stage::kEval, ms);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceTelemetryRecord);

void BM_DrpmSimulation(benchmark::State& state) {
  trace::TraceGenerator generator(swim().program, swim_layout());
  const trace::Trace trace = generator.generate();
  for (auto _ : state) {
    policy::DrpmPolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate(trace, disk::DiskParameters::ultrastar_36z15(), policy)
            .total_energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
}
BENCHMARK(BM_DrpmSimulation)->Unit(benchmark::kMillisecond);

void BM_PowerCallScheduling(benchmark::State& state) {
  for (auto _ : state) {
    const auto result = core::schedule_power_calls(
        swim().program, swim_layout(),
        disk::DiskParameters::ultrastar_36z15());
    benchmark::DoNotOptimize(result.calls_inserted);
  }
}
BENCHMARK(BM_PowerCallScheduling)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sweep engine: serial + cold trace cache vs pooled + warm trace cache on a
// small 2-cell x 7-scheme grid (galgel is the cheapest benchmark).  Both
// variants produce numerically identical results; the first iteration of
// the pooled variant verifies that against the serial reference.

std::vector<experiments::SweepCell> small_sweep() {
  std::vector<experiments::SweepCell> cells;
  for (const Bytes stripe : {kib(32), kib(64)}) {
    experiments::SweepCell cell;
    cell.label = "galgel/s" + std::to_string(stripe / 1024) + "K";
    cell.benchmark = workloads::make_galgel();
    cell.config.striping.stripe_size = stripe;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void BM_SweepSerialUncached(benchmark::State& state) {
  const std::vector<experiments::SweepCell> cells = small_sweep();
  for (auto _ : state) {
    experiments::TraceCache::global().clear();  // each run starts cold
    const auto results = experiments::SweepEngine(1).run(cells);
    benchmark::DoNotOptimize(results.back().results.back().energy_j);
  }
}
BENCHMARK(BM_SweepSerialUncached)->Unit(benchmark::kMillisecond);

void BM_SweepEngineCached(benchmark::State& state) {
  const std::vector<experiments::SweepCell> cells = small_sweep();
  experiments::TraceCache::global().clear();
  const auto reference = experiments::SweepEngine(1).run(cells);
  bool verified = false;
  for (auto _ : state) {
    const auto results = experiments::SweepEngine().run(cells);
    if (!verified) {
      verified = true;
      for (std::size_t c = 0; c < results.size(); ++c) {
        for (std::size_t s = 0; s < results[c].results.size(); ++s) {
          if (results[c].results[s].energy_j !=
                  reference[c].results[s].energy_j ||
              results[c].results[s].execution_ms !=
                  reference[c].results[s].execution_ms) {
            state.SkipWithError("pooled sweep diverged from serial");
            return;
          }
        }
      }
    }
    benchmark::DoNotOptimize(results.back().results.back().energy_j);
  }
}
BENCHMARK(BM_SweepEngineCached)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
