// A user-authored out-of-core stencil pipeline, evaluated under all seven
// power-management schemes.
//
// This is the workflow a scientific-application owner would follow: model
// the application's loop nests in the IR, wrap it as a Benchmark, and let
// the experiment Runner compare Base/TPM/ITPM/DRPM/IDRPM/CMTPM/CMDRPM.
//
//   $ ./examples/stencil_pipeline
#include <iostream>

#include "experiments/runner.h"
#include "ir/builder.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace sdpm;
  using ir::sym;

  // A 3-field, 24 MB out-of-core stencil: two sweep phases per time step
  // plus a cache-resident reduction phase that leaves the disks idle.
  ir::ProgramBuilder pb("stencil");
  const ir::ArrayId t_now = pb.array("T", {1024, 1024});      // 8 MB
  const ir::ArrayId t_next = pb.array("TNEXT", {1024, 1024});  // 8 MB
  const ir::ArrayId coeff = pb.array("COEFF", {1024, 1024});   // 8 MB

  const auto per_iter = [](TimeMs nest_ms, std::int64_t iters) {
    return nest_ms * 750e3 / static_cast<double>(iters);
  };
  const std::int64_t sweep_iters = 1022 * 1022;
  for (int step = 1; step <= 4; ++step) {
    // Five-point stencil: interior sweep reading T/COEFF, writing TNEXT.
    pb.nest(str_printf("stencil%02d", step))
        .loop("i", 1, 1023)
        .loop("j", 1, 1023)
        .stmt(per_iter(900.0, sweep_iters), "relax")
        .read(t_now, {sym("i"), sym("j")})
        .read(t_now, {sym("i") - 1, sym("j")})
        .read(t_now, {sym("i") + 1, sym("j")})
        .read(coeff, {sym("i"), sym("j")})
        .write(t_next, {sym("i"), sym("j")})
        .done();
    // Copy-back sweep.
    pb.nest(str_printf("copy%02d", step))
        .loop("i", 1, 1023)
        .loop("j", 1, 1023)
        .stmt(per_iter(400.0, sweep_iters), "copy")
        .read(t_next, {sym("i"), sym("j")})
        .write(t_now, {sym("i"), sym("j")})
        .done();
    // Residual reduction over one cached boundary row: compute-heavy, no
    // disk traffic after the first touch.
    pb.nest(str_printf("norm%02d", step))
        .loop("t", 0, 2'000)
        .loop("j", 0, 1'024)
        .stmt(per_iter(2'000.0, 2'000 * 1'024), "norm")
        .read(t_now, {ir::sym_const(0), sym("j")})
        .done();
  }

  workloads::Benchmark bench;
  bench.name = "stencil";
  bench.program = pb.build();

  experiments::ExperimentConfig config;  // Table 1 defaults: 8 x 64 KB
  experiments::Runner runner(bench, config);

  Table table("stencil pipeline under the seven schemes");
  table.set_header({"Scheme", "Energy (J)", "Norm. energy", "Exec (s)",
                    "Norm. time", "Mispredict %"});
  for (const experiments::Scheme scheme : experiments::all_schemes()) {
    const experiments::SchemeResult result = runner.run(scheme);
    table.add_row({
        experiments::to_string(result.scheme),
        fmt_double(result.energy_j, 1),
        fmt_double(result.normalized_energy, 3),
        fmt_double(result.execution_ms / 1000.0, 2),
        fmt_double(result.normalized_time, 3),
        result.mispredict_pct ? fmt_double(*result.mispredict_pct, 1) : "-",
    });
  }
  table.print(std::cout);

  const auto& base = runner.base_report();
  std::cout << "\n" << base.requests << " disk requests, "
            << fmt_bytes(base.bytes_transferred) << " transferred, mean "
            << "response " << fmt_time_ms(base.response_ms.mean()) << "\n";
  return 0;
}
