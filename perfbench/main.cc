// The benchmark binary. Normally started through perfbench/run.py, which
// builds it, creates the run's scratch directory and runs it there:
//
//   tsv_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--trace-out FILE]
//
// NAME is fullchip-10k, service-1k, variation-1k, or all (the three in
// sequence in this one process). The last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}; with "all"
// each workload prints its own. Files the workloads write (socket,
// snapshots, journals, checkpoints) go to the current directory.

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Args;

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: tsv_perfbench --workload "
               "fullchip-10k|service-1k|variation-1k|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--smoke") {
        args.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--trace-out") args.trace_out = value;
      else return usage(("unknown flag " + flag).c_str());
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  using Runner = void (*)(const Args&, perfbench::Report&, perfbench::Tracer&);
  const std::pair<const char*, Runner> workloads[] = {
      {"fullchip-10k", perfbench::run_fullchip},
      {"service-1k", perfbench::run_service},
      {"variation-1k", perfbench::run_variation}};
  bool any = false;
  for (const auto& [name, run] : workloads) {
    if (args.workload != name && args.workload != "all") continue;
    any = true;
    perfbench::Tracer tracer(args.trace);
    perfbench::Report report;
    try {
      const std::string seed = args.seed != 0 ? std::to_string(args.seed)
                                              : "90000 + TSVs";
      std::printf("== %s (seed %s, %.3g s, trace %d%s)\n", name,
                  seed.c_str(), args.seconds, args.trace ? 1 : 0,
                  args.smoke ? ", smoke" : "");
      run(args, report, tracer);
      if (args.trace && !args.trace_out.empty()) {
        const std::string path = args.workload == "all"
                                     ? args.trace_out + "." + name + ".json"
                                     : args.trace_out;
        tracer.write_chrome_trace(path);
        std::printf("trace: %s\n", path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", name, e.what());
      return 1;
    }
    report.print();
  }
  return any ? 0 : usage(("unknown workload '" + args.workload + "'").c_str());
}
