// Ablation: the reactive DRPM controller's window size.  The paper uses 30
// "since our evaluation considers one benchmark program at a time, and the
// resulting number of I/O requests is comparatively small"; this sweep
// shows the responsiveness/stability trade-off that motivates the choice.
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "util/strings.h"

int main() {
  using namespace sdpm;

  Table table("Ablation: DRPM controller window size (swim)");
  table.set_header({"Window", "Norm. energy", "Norm. time"});
  workloads::Benchmark swim = workloads::make_swim();
  for (const int window : {5, 15, 30, 60, 120}) {
    experiments::ExperimentConfig config;
    disk::PowerLadder ladder = config.disk.ladder();
    ladder.window_size = window;
    config.disk = disk::DiskParameters::from_ladder(std::move(ladder));
    experiments::Runner runner(swim, config);
    const auto drpm = runner.run(experiments::Scheme::kDrpm);
    table.add_row({std::to_string(window),
                   fmt_double(drpm.normalized_energy, 3),
                   fmt_double(drpm.normalized_time, 3)});
  }
  bench::emit(table);
  return 0;
}
