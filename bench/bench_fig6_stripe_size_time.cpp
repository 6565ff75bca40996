// Regenerates paper Figure 6: normalized execution time of swim as a
// function of the stripe size.  The paper's observation: the reactive
// DRPM's penalty grows with the stripe size (longer same-disk runs invite
// the controller to drop the speed, then every subsequent larger transfer
// pays for it), while CMDRPM stays at the Base time.
#include <algorithm>
#include <exception>
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/sweep.h"
#include "util/strings.h"

int main() {
  using namespace sdpm;

  Table table("Figure 6: swim execution time vs stripe size");
  std::vector<std::string> header = {"Stripe"};
  for (experiments::Scheme s : experiments::all_schemes()) {
    header.push_back(experiments::to_string(s));
  }
  header.push_back("Base (ms)");
  table.set_header(header);

  const workloads::Benchmark swim = workloads::make_swim();
  // One sweep dispatch: every (stripe size, scheme) pair is one task.
  std::vector<experiments::SweepCell> cells;
  for (const Bytes stripe : {kib(16), kib(32), kib(64), kib(128), kib(256)}) {
    experiments::SweepCell& cell = cells.emplace_back();
    cell.label = fmt_bytes(stripe);
    cell.benchmark = swim;
    cell.config.striping.stripe_size = stripe;
    // The application's I/O granularity stays fixed at the default 64 KB
    // request size; the stripe size only changes how requests map to disks
    // (larger stripes send more consecutive requests to the same disk).
    cell.config.gen.block_size = std::min<Bytes>(kib(64), stripe);
  }
  for (const auto& cell : experiments::SweepEngine().run(cells)) {
    if (cell.error) std::rethrow_exception(cell.error);
    std::vector<std::string> row = {cell.label};
    for (const auto& result : cell.results) {
      row.push_back(fmt_double(result.normalized_time, 3));
    }
    row.push_back(fmt_double(cell.results.front().execution_ms, 1));  // Base
    table.add_row(row);
  }
  bench::emit(table);
  return 0;
}
