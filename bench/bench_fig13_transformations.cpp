// Regenerates paper Figure 13: normalized energy consumption with the code
// transformations (LF, TL, LF+DL, TL+DL) under the compiler-managed
// schemes.  All values are normalized against the *original* (untransformed)
// program under Base — the same normalization the paper uses — so a value
// below the untransformed CMTPM/CMDRPM column shows the additional benefit
// contributed by the transformation.
//
// The (benchmark x transformation) grid goes through the api::Session
// facade as one batch: one job per pair, the untransformed job also
// carrying the Base scheme that anchors the benchmark's normalization.
#include <iostream>

#include "api/session.h"
#include "bench/bench_common.h"
#include "core/compiler.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace sdpm;

  const std::vector<std::string> transforms = {"none", "LF", "TL", "LF+DL",
                                               "TL+DL"};
  const std::vector<std::string> schemes = {"CMTPM", "CMDRPM"};

  Table table("Figure 13: normalized energy with code transformations");
  std::vector<std::string> header = {"Benchmark"};
  for (const std::string& t : transforms) {
    for (const std::string& s : schemes) {
      header.push_back(t + "/" + s);
    }
  }
  table.set_header(header);

  const std::vector<std::string> benchmarks = workloads::benchmark_names();
  std::vector<api::JobSpec> specs;
  for (const std::string& b : benchmarks) {
    for (const std::string& t : transforms) {
      api::JobSpecBuilder builder(b);
      builder.transform(t);
      // The untransformed job also anchors the normalization.
      if (t == "none") builder.scheme("Base");
      for (const std::string& s : schemes) builder.scheme(s);
      specs.push_back(builder.build());
    }
  }

  api::Session session;
  std::vector<api::JobResult> sweep;
  for (const api::JobSlot& slot : session.run_batch(specs)) {
    sweep.push_back(slot.value());
  }

  std::vector<double> sums(transforms.size() * schemes.size(), 0.0);
  std::size_t cell_index = 0;
  for (const std::string& b : benchmarks) {
    // jobs are laid out benchmark-major, "none" first.
    const Joules base_energy = sweep[cell_index].schemes[0].energy_j;
    std::vector<std::string> row = {b};
    std::size_t col = 0;
    for (std::size_t t = 0; t < transforms.size(); ++t) {
      const api::JobResult& cell = sweep[cell_index++];
      const std::size_t first = t == 0 ? 1 : 0;  // skip the Base anchor
      for (std::size_t s = first; s < cell.schemes.size(); ++s) {
        const double normalized = cell.schemes[s].energy_j / base_energy;
        row.push_back(fmt_double(normalized, 3));
        sums[col++] += normalized;
      }
    }
    table.add_row(row);
  }
  std::vector<std::string> avg = {"average"};
  for (double s : sums) {
    avg.push_back(fmt_double(s / static_cast<double>(benchmarks.size()), 3));
  }
  table.add_row(avg);

  bench::emit(table);
  return 0;
}
