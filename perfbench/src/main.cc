// End-to-end benchmark binary. perfbench/run.py builds and drives it;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --threads T
//             [--trace] [--tiny] [--perturb]
//
// Prints one line to standard output, `RESULT {json}`, with metrics,
// per-layer metrics, phase counts, correctness checks and run
// information; failed checks are also reported on standard error.
// Exits 1 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/bench_util.h"
#include "layers.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--threads" && has_value) {
      args.threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else if ((flag == "--trace-out" || flag == "--metrics-out") &&
               has_value) {
      ++i;  // handled by ApplyObservabilityFlags
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return false;
    }
  }
  return args.seconds > 0.0 && args.threads > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) return 1;
  void (*run)(const Args&, Report&, Profiler&) = nullptr;
  if (args.workload == "train-cora" || args.workload == "train-pubmed") {
    run = RunTrain;
  } else if (args.workload == "predict-pubmed") {
    run = RunPredict;
  } else if (args.workload == "serve-tencent") {
    run = RunServe;
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 1;
  }
  args.threads = lasagne::bench::ApplyThreadsFlag(argc, argv);
  lasagne::bench::ApplyObservabilityFlags(argc, argv);
  // Ring buffers sized so that no phase between two flushes overflows.
  if (args.trace) lasagne::obs::EnableTracing(1 << 18);

  if (!args.tiny) WarmUpCpus(1.5);
  Report report;
  Profiler prof(args.trace);
  if (args.trace) DefaultLayers(report);
  run(args, report, prof);

  if (args.trace) {
    report.Layer("obs.dropped_spans", static_cast<double>(prof.dropped()),
                 "count");
    report.Check("no_dropped_spans", prof.dropped() == 0);
  }
  report.Info("threads", lasagne::obs::JsonValue::Number(args.threads));
  report.Emit();
  return 0;
}
