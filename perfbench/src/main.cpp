// sdpm_perfbench — the end-to-end benchmark of the sdpm reproduction.
//
//   sdpm_perfbench --workload paper_cold|service_mixed|analyze_fix
//                  --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--reference FILE]
//                  [--record-reference FILE]
//
// Runs one workload for about S seconds under seed N, checks every result,
// and prints one JSON line last: {"correct","attempted","failed","metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the work
// step by step through the layers' public calls and reports the per-layer
// breakdown instead.  perfbench/README.md describes the workloads.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sdpm_perfbench: %s\n"
               "usage: sdpm_perfbench --workload "
               "paper_cold|service_mixed|analyze_fix --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--reference FILE] "
               "[--record-reference FILE]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--reference") {
        args.reference = value;
      } else if (flag == "--record-reference") {
        args.record_reference = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Outcome out;
  try {
    if (args.workload == "paper_cold") {
      perfbench::run_paper_cold(args, out);
    } else if (args.workload == "service_mixed") {
      perfbench::run_service_mixed(args, out);
    } else if (args.workload == "analyze_fix") {
      perfbench::run_analyze_fix(args, out);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdpm_perfbench: %s\n", e.what());
    return 1;
  }
  if (!args.record_reference.empty()) return out.correct() ? 0 : 1;
  out.print();
  return out.correct() ? 0 : 1;
}
