// Regenerates paper Figure 3: normalized disk energy consumption of every
// benchmark under Base/TPM/ITPM/DRPM/IDRPM/CMTPM/CMDRPM with the default
// configuration.  Values are normalized against the Base scheme (1.00).
// The six benchmark jobs go through the api::Session facade as one batch
// (--jobs/SDPM_JOBS controls the worker count); results are identical to
// the serial run.
#include <iostream>

#include "api/session.h"
#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace sdpm;

  Table table("Figure 3: normalized energy consumption");
  std::vector<std::string> header = {"Benchmark"};
  for (experiments::Scheme s : experiments::all_schemes()) {
    header.push_back(experiments::to_string(s));
  }
  table.set_header(header);

  std::vector<api::JobSpec> specs;
  for (const std::string& name : workloads::benchmark_names()) {
    specs.push_back(api::JobSpecBuilder(name).label(name).build());
  }
  api::Session session;
  std::vector<api::JobResult> sweep;
  for (const api::JobSlot& slot : session.run_batch(specs)) {
    sweep.push_back(slot.value());
  }

  std::vector<double> sums(experiments::all_schemes().size(), 0.0);
  for (const api::JobResult& cell : sweep) {
    std::vector<std::string> row = {cell.label};
    for (std::size_t i = 0; i < cell.schemes.size(); ++i) {
      row.push_back(fmt_double(cell.schemes[i].normalized_energy, 3));
      sums[i] += cell.schemes[i].normalized_energy;
    }
    table.add_row(row);
  }
  std::vector<std::string> avg = {"average"};
  for (double s : sums) {
    avg.push_back(fmt_double(s / static_cast<double>(sweep.size()), 3));
  }
  table.add_row(avg);

  bench::emit(table);
  return 0;
}
