// Observability: per-benchmark idle-gap distributions under Base.
//
// The gap distribution *is* the opportunity every power scheme harvests:
// quantiles are printed against the two decision thresholds — the DRPM
// one-step round trip (smallest exploitable gap) and the TPM break-even
// (smallest spin-down-worthy gap).  This is the companion data for
// EXPERIMENTS.md's discussion of why TPM never fires on the untransformed
// codes while DRPM thrives.
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/profile.h"
#include "experiments/runner.h"
#include "util/strings.h"

int main() {
  using namespace sdpm;

  Table table("Idle-gap distribution per benchmark (Base run)");
  table.set_header({"Benchmark", "Gaps", "Median", "p95", "Max",
                    "> DRPM round trip", "> TPM break-even"});
  for (workloads::Benchmark& b : workloads::all_benchmarks()) {
    experiments::ExperimentConfig config;
    experiments::Runner runner(b, config);
    const sim::SimReport& base = runner.base_report();
    const Histogram gaps = experiments::idle_gap_histogram(base);

    // Count gaps above each threshold directly from the busy timelines.
    const TimeMs round_trip = 2 * config.disk.rpm_transition_time(1, 0);
    const TimeMs break_even = config.disk.break_even_time();
    std::int64_t above_rt = 0, above_be = 0, total = 0;
    for (const sim::DiskReport& d : base.disks) {
      TimeMs cursor = 0;
      for (const sim::BusyPeriod& bp : d.busy_periods) {
        const TimeMs gap = bp.start - cursor;
        if (gap > 0) {
          ++total;
          if (gap > round_trip) ++above_rt;
          if (gap > break_even) ++above_be;
        }
        cursor = bp.completion;
      }
      const TimeMs tail = base.execution_ms - cursor;
      if (tail > 0) {
        ++total;
        if (tail > round_trip) ++above_rt;
        if (tail > break_even) ++above_be;
      }
    }
    table.add_row({
        b.name,
        std::to_string(total),
        fmt_time_ms(gaps.median()),
        fmt_time_ms(gaps.p95()),
        fmt_time_ms(gaps.max()),
        fmt_double(100.0 * above_rt / std::max<std::int64_t>(total, 1), 1) +
            "%",
        fmt_double(100.0 * above_be / std::max<std::int64_t>(total, 1), 1) +
            "%",
    });
  }
  bench::emit(table);
  return 0;
}
