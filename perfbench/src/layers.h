// Per-layer metrics of the traced run, computed from the profiler's
// span totals and from the counters the library exposes.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "harness.h"
#include "models/model.h"

namespace perfbench {

/// Sets every per-layer metric to 0, so a run reports the full list and
/// a layer a workload does not exercise reads 0.
void DefaultLayers(Report& report);

/// Self time of the kernel and layer spans in `phases`, per unit of
/// work, under model tag `tag` ("lasagne" or "gat").
void KernelLayers(const Profiler& prof, const std::vector<std::string>& phases,
                  double units, const std::string& tag, Report& report);

/// Thread-pool regions and busy fraction over `phases`, per unit.
void ThreadPoolLayers(const Profiler& prof,
                      const std::vector<std::string>& phases, double units,
                      size_t threads, Report& report);

/// Adds the global buffer-pool traffic between two GetStats() snapshots
/// to `total` (its cached_bytes is left alone).
void AddPoolTraffic(lasagne::BufferPool::Stats& total,
                    const lasagne::BufferPool::Stats& before,
                    const lasagne::BufferPool::Stats& after);

/// Buffer-pool traffic of the measured work, per unit.
void BufferPoolLayers(const lasagne::BufferPool::Stats& traffic, double units,
                      Report& report);

/// Compiles `model`'s eval plan a few times and runs the compiled copy:
/// compile_ms, run_ms, steps and workspace_mb under `tag`.
void PlanLayers(lasagne::Model& model, const std::string& tag,
                Report& report);

/// Reports setup_s (median over the set-ups), data.load_ms,
/// models.make_ms and the graph sizes.
void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& load_ms,
                 const std::vector<double>& make_ms, size_t nodes,
                 size_t edges, size_t features, size_t classes,
                 Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
