// Fault-resilience sweep (robustness extension, DESIGN.md §8).
//
// Sweeps the per-attempt spin-up failure probability and compares four
// schemes on an iterative run of mgrid (LF+DL, 12 timesteps of the
// single-step trace — the compiler plans one timestep, the application
// repeats it): Base (always on), reactive TPM, the compiler-directed
// CMTPM proactive scheme, and CMTPM wrapped in the ResilientPolicy health
// monitor (R+CMTPM).  Under faults every commanded or demand spin-up may
// fail and retry with backoff (~11 s each); the resilient wrapper demotes
// disks that show retries or unplanned demand wakes to a conservative
// adaptive-TPM fallback, so execution time degrades gracefully while
// energy stays below Base.
#include <cstdint>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "policy/base.h"
#include "policy/proactive.h"
#include "policy/resilient.h"
#include "policy/tpm.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace sdpm;

  const int kTimesteps = 12;
  workloads::Benchmark bench = workloads::make_benchmark("mgrid");
  experiments::ExperimentConfig config;
  config.transform = core::Transformation::kLFDL;
  experiments::Runner runner(bench, config);
  const trace::Trace plain =
      trace::repeat_trace(runner.trace(), kTimesteps);
  const trace::Trace cm = trace::repeat_trace(
      runner.cm_trace(core::PowerMode::kTpm), kTimesteps);

  Table table("Fault resilience on mgrid LF+DL x" +
              std::to_string(kTimesteps) + " (spin-up failure sweep)");
  table.set_header({"Failure %", "Base J", "Base s", "TPM J", "TPM s",
                    "CMTPM J", "CMTPM s", "R+CMTPM J", "R+CMTPM s",
                    "Retries", "Demotions"});

  for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.15}) {
    sim::SimOptions options;
    options.faults.spin_up_failure_prob = rate;

    policy::BasePolicy base;
    const sim::SimReport base_report = sim::simulate(
        plain, config.disk, base, options);

    policy::TpmPolicy tpm;
    const sim::SimReport tpm_report = sim::simulate(
        plain, config.disk, tpm, options);

    policy::ProactivePolicy cmtpm("CMTPM");
    const sim::SimReport cm_report = sim::simulate(
        cm, config.disk, cmtpm, options);

    policy::ProactivePolicy inner("CMTPM");
    policy::ResilientPolicy resilient(inner);
    const sim::SimReport res_report = sim::simulate(
        cm, config.disk, resilient, options);

    table.add_row({
        fmt_double(100.0 * rate, 0),
        fmt_double(base_report.total_energy, 0),
        fmt_double(base_report.execution_ms / 1e3, 1),
        fmt_double(tpm_report.total_energy, 0),
        fmt_double(tpm_report.execution_ms / 1e3, 1),
        fmt_double(cm_report.total_energy, 0),
        fmt_double(cm_report.execution_ms / 1e3, 1),
        fmt_double(res_report.total_energy, 0),
        fmt_double(res_report.execution_ms / 1e3, 1),
        std::to_string(res_report.spin_up_retries()),
        std::to_string(resilient.demotions()),
    });
  }

  bench::emit(table);
  return 0;
}
