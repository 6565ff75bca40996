// Regenerates paper Figure 8: normalized execution time of swim as a
// function of the stripe factor (number of disks).
#include <exception>
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/sweep.h"
#include "util/strings.h"

int main() {
  using namespace sdpm;

  Table table("Figure 8: swim execution time vs stripe factor");
  std::vector<std::string> header = {"Disks"};
  for (experiments::Scheme s : experiments::all_schemes()) {
    header.push_back(experiments::to_string(s));
  }
  header.push_back("Base (ms)");
  table.set_header(header);

  const workloads::Benchmark swim = workloads::make_swim();
  // One sweep dispatch: every (disk count, scheme) pair is one task.
  std::vector<experiments::SweepCell> cells;
  for (const int disks : {2, 4, 8, 16, 32}) {
    experiments::SweepCell& cell = cells.emplace_back();
    cell.label = std::to_string(disks);
    cell.benchmark = swim;
    cell.config.total_disks = disks;
    cell.config.striping.stripe_factor = disks;
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
