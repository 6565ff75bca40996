// Regenerates paper Figure 4: normalized execution times of every benchmark
// under the seven schemes with the default configuration.  The six
// benchmark jobs go through the api::Session facade as one batch
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

  Table table("Figure 4: normalized execution time");
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
      row.push_back(fmt_double(cell.schemes[i].normalized_time, 3));
      sums[i] += cell.schemes[i].normalized_time;
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
