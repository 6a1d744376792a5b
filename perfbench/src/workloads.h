// The four benchmark workloads. Each one sets itself up several times
// (setup_s is the median), measures for `args.seconds`, checks its
// outputs, and fills `report` with its end-to-end metrics, phase counts
// and, in a traced run, its per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Model names and the tags used in metric names.
struct ModelSpec {
  const char* name;
  const char* tag;
};
inline constexpr ModelSpec kPaperModels[] = {{"lasagne-weighted", "lasagne"},
                                             {"gat", "gat"}};

/// train-cora and train-pubmed.
void RunTrain(const Args& args, Report& report, Profiler& prof);
/// predict-pubmed.
void RunPredict(const Args& args, Report& report, Profiler& prof);
/// serve-tencent.
void RunServe(const Args& args, Report& report, Profiler& prof);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
