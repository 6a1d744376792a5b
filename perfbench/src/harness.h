// Shared pieces of the end-to-end benchmark: run arguments, timing
// summaries, failure accounting, the result report, and the traced-run
// profiler that turns recorded spans into per-layer self times.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  size_t threads = 1;
  bool trace = false;    // traced run: spans on, per-layer metrics
  bool tiny = false;     // smoke size: small graphs, short runs
  bool perturb = false;  // flip one served logit bit before the checks
};

/// Median and tail of a timing series. `p50` is the median; `tail` is
/// the highest percentile with at least 10 samples above it, and
/// `tail_pct` says which one. A series of fewer than 20 samples has no
/// such percentile above its median, so its tail is its median.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

/// Outcome counts of one phase (epochs or requests).
struct Counts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;
  uint64_t expired = 0;
  uint64_t late = 0;
  uint64_t failed = 0;  // every attempt that did not succeed
};

/// Runs `fn` inside a bench-owned trace span and returns its wall time
/// in ms. The span costs one relaxed load while tracing is off.
template <typename Fn>
double Timed(const char* span, Fn&& fn) {
  lasagne::obs::TraceScope scope(span);
  const Clock::time_point start = Clock::now();
  fn();
  return MsSince(start);
}

/// Collects the result of one run and prints it as the `RESULT {...}`
/// line run.py parses.
class Report {
 public:
  Report();

  /// End-to-end metric, under the name the report prints.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0, double tail_pct = 0.0);
  /// `p50_name` gets the median, `tail_name` the tail.
  void Timing(const std::string& p50_name, const std::string& tail_name,
              const Summary& s);
  /// Per-layer metric (traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Correctness check; any failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Phase(const std::string& name, const Counts& counts);
  void Info(const std::string& key, lasagne::obs::JsonValue value);

  bool ok() const { return ok_; }
  void Emit() const;

 private:
  lasagne::obs::JsonValue metrics_;
  lasagne::obs::JsonValue layers_;
  lasagne::obs::JsonValue checks_;
  lasagne::obs::JsonValue phases_;
  lasagne::obs::JsonValue info_;
  bool ok_ = true;
};

/// Span totals of one name within one phase.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus direct layer children
};
using SpanTable = std::map<std::string, SpanTotals>;

/// Traced-run span accounting. Flush() folds every span recorded since
/// the previous flush into a named phase and clears the trace buffers,
/// so long phases never overflow the per-thread rings. `pool.region`
/// and `pool.task` count as part of the kernel that opened them: they
/// are not subtracted from their parent's self time.
class Profiler {
 public:
  explicit Profiler(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Call only while no traced work is running on any thread.
  void Flush(const std::string& phase);
  /// Self time summed over the spans of `phase` named in `names`.
  double SelfMs(const std::string& phase,
                const std::vector<std::string>& names) const;
  double TotalMs(const std::string& phase, const std::string& name) const;
  uint64_t Count(const std::string& phase, const std::string& name) const;
  uint64_t dropped() const { return dropped_; }

 private:
  /// Totals of `phase` (empty when nothing was recorded).
  const SpanTable& phase(const std::string& name) const;

  bool enabled_;
  std::map<std::string, SpanTable> phases_;
  uint64_t dropped_ = 0;
};

/// Keeps every core busy with plain arithmetic for `seconds`. The
/// reference host's vCPUs run about 3x slower for the first second of
/// activity after being idle; without this, the first set-ups of a run
/// measure that ramp instead of the program. No library code runs here.
void WarmUpCpus(double seconds);

/// Frees the buffer pool's cached chunks and returns the allocator's free
/// pages to the system, so that each repeated set-up starts as in a fresh
/// process and the peak RSS counts one set-up, not all of them.
void ReleaseCachedMemory();

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// A served result kept for the correctness check. The logits are copied
/// out of the library's tensor, so its buffer goes back to the pool as it
/// would for a user and the measured pool traffic is the program's own.
struct Sample {
  std::vector<uint32_t> ids;
  std::vector<float> logits;  // one row per id, row-major
};
Sample MakeSample(std::vector<uint32_t> ids, const lasagne::Tensor& logits);

/// True when row i of `sample` equals row `ids[i]` of `full` bit for bit.
bool RowsBitEqual(const Sample& sample, const lasagne::Tensor& full);

/// True when `samples` is not empty and every one matches `full`.
bool AllRowsBitEqual(const std::vector<Sample>& samples,
                     const lasagne::Tensor& full);

/// Flips the lowest mantissa bit of the first logit: the smoke test's
/// deliberately wrong result.
void PerturbFirstLogit(Sample& sample);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
