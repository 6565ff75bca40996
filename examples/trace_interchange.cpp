// Trace interchange and replay: exporting an I/O trace in the paper's text
// format, reading it back (as one would an externally captured trace), and
// replaying it open-loop under the reactive policies.
//
// This is the DiskSim-style workflow for traces that did not come from the
// compiler: no program structure, no proactive calls — just timestamped
// requests and the reactive policy family.
//
//   $ ./examples/trace_interchange
#include <iostream>
#include <sstream>

#include "experiments/report.h"
#include "layout/layout_table.h"
#include "policy/adaptive_tpm.h"
#include "policy/base.h"
#include "policy/drpm.h"
#include "policy/tpm.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/text_io.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace sdpm;

  // 1. Produce a trace (here from the mesa benchmark; in the wild this
  //    would be a blktrace-style capture).
  const workloads::Benchmark mesa = workloads::make_mesa();
  const layout::LayoutTable table(mesa.program, layout::Striping{}, 8);
  trace::TraceGenerator generator(mesa.program, table);
  const trace::Trace original = generator.generate();

  // 2. Serialize and parse it back through the interchange format.
  std::stringstream file;
  trace::write_trace_text(original, file);
  std::cout << "trace file preview:\n";
  std::string line;
  for (int i = 0; i < 5 && std::getline(file, line); ++i) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "  ... (" << original.requests.size() << " requests)\n\n";
  file.clear();
  file.seekg(0);
  trace::Trace parsed = trace::read_trace_text(file);

  // The generated timestamps are compute-only; a trace captured on a real
  // system would include its I/O time.  Dilate the clock accordingly so the
  // open-loop replay is not artificially overloaded.
  for (trace::Request& r : parsed.requests) r.arrival_ms *= 2.5;
  parsed.compute_total_ms *= 2.5;

  // 3. Replay it open-loop (fixed timestamps) under each reactive policy.
  const disk::DiskParameters params = disk::DiskParameters::ultrastar_36z15();
  Table summary("open-loop replay under reactive policies");
  summary.set_header({"Policy", "Energy (J)", "Completion", "Mean resp",
                      "Spin-downs", "RPM shifts"});
  const auto add_row = [&](const char* name, sim::PowerPolicy& policy) {
    const sim::SimReport report = sim::simulate(
        parsed, params, policy,
        sim::SimOptions{.mode = sim::ReplayMode::kOpenLoop});
    std::int64_t downs = 0, shifts = 0;
    for (const auto& d : report.disks) {
      downs += d.spin_downs;
      shifts += d.rpm_transitions;
    }
    summary.add_row({name, fmt_double(report.total_energy, 1),
                     fmt_time_ms(report.execution_ms),
                     fmt_time_ms(report.response_ms.mean()),
                     std::to_string(downs), std::to_string(shifts)});
  };

  policy::BasePolicy base;
  policy::TpmPolicy tpm;
  policy::AdaptiveTpmPolicy atpm;
  policy::DrpmPolicy drpm;
  add_row("Base", base);
  add_row("TPM", tpm);
  add_row("ATPM", atpm);
  add_row("DRPM", drpm);
  summary.print(std::cout);

  std::cout << "\nNote: open-loop replay cannot model the paper's proactive"
               " schemes — their power\ncalls are program events, which is"
               " precisely why the compiler-directed approach\nneeds source"
               " access (paper §1).\n";
  return 0;
}
