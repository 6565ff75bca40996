// Replay-engine equivalence: the devirtualized policy kernels are pure
// speed.  Each built-in policy replayed through its static kernel must
// produce a SimReport bit-identical to the same policy wrapped in a
// ForwardingPolicy, which has no kernel and so takes the generic virtual
// engine — per built-in policy, with and without fault injection, closed
// and open loop, traced and untraced.
//
// Every comparison is EXPECT_EQ, never NEAR.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/schedule.h"
#include "layout/layout_table.h"
#include "obs/sinks.h"
#include "obs/tracer.h"
#include "policy/adaptive_tpm.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/proactive.h"
#include "policy/resilient.h"
#include "policy/tpm.h"
#include "sim/multi_stream.h"
#include "sim/simulator.h"
#include "tests/forwarding_policy.h"
#include "trace/generator.h"
#include "util/error.h"
#include "workloads/benchmarks.h"

namespace sdpm {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p =
      disk::DiskParameters::ultrastar_36z15();
  return p;
}

/// The galgel benchmark striped over 4 disks — the cheapest real trace —
/// run through the power-call scheduler (CMDRPM) so the stream carries
/// real power events: ProactivePolicy executes directives, the fault
/// model can drop them, and the power-event arm of the replay loop is
/// exercised in every cell.
const trace::Trace& galgel_trace() {
  static const trace::Trace t = [] {
    const workloads::Benchmark bench = workloads::make_galgel();
    const layout::LayoutTable table(bench.program,
                                    layout::Striping{0, 4, kib(64)}, 4);
    const core::ScheduleResult scheduled =
        core::schedule_power_calls(bench.program, table, params());
    trace::TraceGenerator generator(scheduled.program, table);
    trace::Trace trace = generator.generate();
    // The matrix below assumes both item kinds are present.
    SDPM_REQUIRE(!trace.power_events.empty(),
                 "scheduler inserted no power events");
    return trace;
  }();
  return t;
}

sim::SimOptions faulty(sim::SimOptions o) {
  o.faults.spin_up_failure_prob = 0.3;
  o.faults.media_error_prob = 0.05;
  o.faults.dropped_directive_prob = 0.2;
  o.faults.service_jitter = 0.1;
  o.faults.seed = 42;
  return o;
}

sim::SimOptions open_loop(sim::SimOptions o) {
  o.mode = sim::ReplayMode::kOpenLoop;
  return o;
}

void expect_bit_identical(const sim::SimReport& a, const sim::SimReport& b) {
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.execution_ms, b.execution_ms);
  EXPECT_EQ(a.compute_ms, b.compute_ms);
  EXPECT_EQ(a.io_stall_ms, b.io_stall_ms);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    ASSERT_EQ(a.responses[i], b.responses[i]) << "request " << i;
  }
  ASSERT_EQ(a.disks.size(), b.disks.size());
  for (std::size_t d = 0; d < a.disks.size(); ++d) {
    EXPECT_EQ(a.disks[d].breakdown.total_j(), b.disks[d].breakdown.total_j());
    EXPECT_EQ(a.disks[d].services, b.disks[d].services);
    EXPECT_EQ(a.disks[d].spin_downs, b.disks[d].spin_downs);
    EXPECT_EQ(a.disks[d].demand_spin_ups, b.disks[d].demand_spin_ups);
    EXPECT_EQ(a.disks[d].rpm_transitions, b.disks[d].rpm_transitions);
    EXPECT_EQ(a.disks[d].spin_up_retries, b.disks[d].spin_up_retries);
    EXPECT_EQ(a.disks[d].media_errors, b.disks[d].media_errors);
    EXPECT_EQ(a.disks[d].dropped_directives, b.disks[d].dropped_directives);
  }
}

/// Replay the trace under a fresh Policy — bare, and so through its
/// static kernel, or wrapped in a ForwardingPolicy and so through the
/// virtual engine — capturing the full response vector so the comparison
/// covers per-request behavior.
template <class Policy, class... Args>
sim::SimReport run(const trace::Trace& trace, sim::SimOptions options,
                   bool virtual_engine, const Args&... args) {
  options.capture_responses = true;
  if (virtual_engine) {
    test::ForwardingPolicy<Policy> policy(args...);
    EXPECT_EQ(policy.replay_kernel(), nullptr);
    return sim::simulate(trace, params(), policy, options);
  }
  Policy policy(args...);
  EXPECT_NE(policy.replay_kernel(), nullptr);
  return sim::simulate(trace, params(), policy, options);
}

/// One (policy, options) cell: the kernel must reproduce the virtual
/// engine's report exactly.
template <class Policy, class... Args>
void check_cell(const trace::Trace& trace, const sim::SimOptions& options,
                const Args&... args) {
  expect_bit_identical(run<Policy>(trace, options, true, args...),
                       run<Policy>(trace, options, false, args...));
}

/// The four standard option cells: {closed, open} x {fault-free, faulty}.
template <class Policy, class... Args>
void check_all_cells(const trace::Trace& trace, const Args&... args) {
  {
    SCOPED_TRACE("closed-loop fault-free");
    check_cell<Policy>(trace, sim::SimOptions{}, args...);
  }
  {
    SCOPED_TRACE("closed-loop faulty");
    check_cell<Policy>(trace, faulty({}), args...);
  }
  {
    SCOPED_TRACE("open-loop fault-free");
    check_cell<Policy>(trace, open_loop({}), args...);
  }
  {
    SCOPED_TRACE("open-loop faulty");
    check_cell<Policy>(trace, open_loop(faulty({})), args...);
  }
}

TEST(ReplayEquivalence, BasePolicy) {
  check_all_cells<policy::BasePolicy>(galgel_trace());
}

TEST(ReplayEquivalence, TpmPolicy) {
  check_all_cells<policy::TpmPolicy>(galgel_trace());
}

TEST(ReplayEquivalence, AdaptiveTpmPolicy) {
  check_all_cells<policy::AdaptiveTpmPolicy>(galgel_trace());
}

TEST(ReplayEquivalence, DrpmPolicy) {
  check_all_cells<policy::DrpmPolicy>(galgel_trace());
}

TEST(ReplayEquivalence, ProactivePolicyWithDirectives) {
  // galgel's compiled program inserts power calls, so the proactive
  // policy replays real directives through both engines.
  check_all_cells<policy::ProactivePolicy>(galgel_trace(), "CMDRPM");
}

// Every driver reports each service to the policy once, before and
// after, and delivers each power event once: closed loop, open loop and
// two streams of the same trace on one array.
TEST(ReplayEquivalence, EveryDriverCallsEachHookOncePerItem) {
  const trace::Trace& trace = galgel_trace();
  const auto requests = trace.request_count();
  const auto events = static_cast<std::int64_t>(trace.power_events.size());
  for (const sim::ReplayMode mode :
       {sim::ReplayMode::kClosedLoop, sim::ReplayMode::kOpenLoop}) {
    SCOPED_TRACE(mode == sim::ReplayMode::kOpenLoop ? "open loop"
                                                    : "closed loop");
    test::ForwardingPolicy<policy::ProactivePolicy> policy("CMDRPM");
    sim::simulate(trace, params(), policy, sim::SimOptions{.mode = mode});
    EXPECT_EQ(policy.counts().before_service, requests);
    EXPECT_EQ(policy.counts().after_service, requests);
    EXPECT_EQ(policy.counts().power_events, events);
  }
  test::ForwardingPolicy<policy::ProactivePolicy> policy("CMDRPM");
  const std::vector<trace::Trace> streams = {trace, trace};
  sim::simulate_streams(streams, params(), policy);
  EXPECT_EQ(policy.counts().before_service, 2 * requests);
  EXPECT_EQ(policy.counts().after_service, 2 * requests);
  EXPECT_EQ(policy.counts().power_events, 2 * events);
}

// Wrapper policies have no static kernel, so the simulator replays them
// through the virtual engine.
TEST(ReplayEquivalence, ResilientWrapperStaysVirtual) {
  policy::TpmPolicy inner;
  const policy::ResilientPolicy resilient(inner);
  EXPECT_EQ(resilient.replay_kernel(), nullptr);
  const test::ForwardingPolicy<policy::TpmPolicy> forwarding;
  EXPECT_EQ(forwarding.replay_kernel(), nullptr);
}

// Tracing must not perturb results in either engine: a counting sink
// consumes every event while the reports stay bit-identical, and both
// engines emit the same number of events.
TEST(ReplayEquivalence, TracedKernelMatchesTracedVirtual) {
  auto traced_run = [&](sim::PowerPolicy& policy, std::int64_t* events) {
    obs::CountingSink sink;
    obs::EventTracer tracer;
    tracer.add_sink(sink);
    sim::SimOptions options;
    options.tracer = &tracer;
    options.capture_responses = true;
    const sim::SimReport report =
        sim::simulate(galgel_trace(), params(), policy, options);
    *events = sink.total();
    return report;
  };
  std::int64_t virtual_events = 0;
  std::int64_t kernel_events = 0;
  test::ForwardingPolicy<policy::TpmPolicy> forwarding;
  const sim::SimReport virt = traced_run(forwarding, &virtual_events);
  policy::TpmPolicy bare;
  const sim::SimReport kern = traced_run(bare, &kernel_events);
  expect_bit_identical(virt, kern);
  EXPECT_GT(virtual_events, 0);
  EXPECT_EQ(virtual_events, kernel_events);
}

// A second benchmark (swim, 8 disks — the microbench workload), fault
// free: guards against galgel-specific coincidences.
TEST(ReplayEquivalence, SwimEightDisks) {
  const workloads::Benchmark bench = workloads::make_swim();
  const layout::LayoutTable table(bench.program,
                                  layout::Striping{0, 8, kib(64)}, 8);
  trace::TraceGenerator generator(bench.program, table);
  const trace::Trace trace = generator.generate();
  check_cell<policy::DrpmPolicy>(trace, sim::SimOptions{});
}

}  // namespace
}  // namespace sdpm
