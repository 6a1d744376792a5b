#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/buffer_pool.h"

namespace perfbench {

using lasagne::obs::JsonValue;

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Median(samples);
  if (s.n < 20) {
    s.tail = s.p50;
    s.tail_pct = 50.0;
    return s;
  }
  // The (n-10)-th smallest sample has exactly 10 samples above it.
  std::sort(samples.begin(), samples.end());
  s.tail = samples[s.n - 11];
  s.tail_pct =
      100.0 * static_cast<double>(s.n - 10) / static_cast<double>(s.n);
  return s;
}

Report::Report()
    : metrics_(JsonValue::Object()),
      layers_(JsonValue::Object()),
      checks_(JsonValue::Array()),
      phases_(JsonValue::Object()),
      info_(JsonValue::Object()) {}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples,
                    double tail_pct) {
  JsonValue m = JsonValue::Object();
  m.Set("value", JsonValue::Number(value));
  m.Set("unit", JsonValue::String(unit));
  m.Set("samples", JsonValue::Number(static_cast<double>(samples)));
  if (tail_pct > 0.0) m.Set("tail_pct", JsonValue::Number(tail_pct));
  metrics_.Set(name, std::move(m));
}

void Report::Timing(const std::string& p50_name, const std::string& tail_name,
                    const Summary& s) {
  Metric(p50_name, s.p50, "ms", s.n);
  Metric(tail_name, s.tail, "ms", s.n, s.tail_pct);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  JsonValue m = JsonValue::Object();
  m.Set("value", JsonValue::Number(value));
  m.Set("unit", JsonValue::String(unit));
  layers_.Set(name, std::move(m));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  JsonValue c = JsonValue::Object();
  c.Set("name", JsonValue::String(name));
  c.Set("ok", JsonValue::Bool(ok));
  c.Set("detail", JsonValue::String(detail));
  checks_.Append(std::move(c));
  if (!ok) {
    ok_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Report::Phase(const std::string& name, const Counts& c) {
  JsonValue p = JsonValue::Object();
  p.Set("attempted", JsonValue::Number(static_cast<double>(c.attempted)));
  p.Set("succeeded", JsonValue::Number(static_cast<double>(c.succeeded)));
  p.Set("refused", JsonValue::Number(static_cast<double>(c.refused)));
  p.Set("expired", JsonValue::Number(static_cast<double>(c.expired)));
  p.Set("late", JsonValue::Number(static_cast<double>(c.late)));
  p.Set("failed", JsonValue::Number(static_cast<double>(c.failed)));
  phases_.Set(name, std::move(p));
}

void Report::Info(const std::string& key, JsonValue value) {
  info_.Set(key, std::move(value));
}

void Report::Emit() const {
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(ok_));
  out.Set("metrics", metrics_);
  out.Set("layers", layers_);
  out.Set("checks", checks_);
  out.Set("phases", phases_);
  out.Set("info", info_);
  std::printf("RESULT %s\n", out.Dump().c_str());
  std::fflush(stdout);
}

namespace {

bool Transparent(const char* name) {
  return std::strcmp(name, "pool.region") == 0 ||
         std::strcmp(name, "pool.task") == 0;
}

}  // namespace

void Profiler::Flush(const std::string& phase) {
  if (!enabled_) return;
  dropped_ += lasagne::obs::TraceDroppedEvents();
  std::vector<lasagne::obs::TraceEvent> events = lasagne::obs::CollectTrace();
  lasagne::obs::ClearTrace();
  // Parents before children: by thread, then start, then depth.
  std::sort(events.begin(), events.end(),
            [](const lasagne::obs::TraceEvent& a,
               const lasagne::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) stack.clear();
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (top.depth < e.depth &&
          top.start_ns + top.duration_ns >= e.start_ns + e.duration_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!Transparent(e.name)) {
      for (size_t k = stack.size(); k-- > 0;) {
        if (!Transparent(events[stack[k]].name)) {
          child_ns[stack[k]] += e.duration_ns;
          break;
        }
      }
    }
    stack.push_back(i);
  }
  SpanTable& table = phases_[phase];
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = table[events[i].name];
    t.count += 1;
    t.total_ms += static_cast<double>(events[i].duration_ns) / 1e6;
    t.self_ms +=
        static_cast<double>(events[i].duration_ns - child_ns[i]) / 1e6;
  }
}

const SpanTable& Profiler::phase(const std::string& name) const {
  static const SpanTable& empty = *new SpanTable();
  auto it = phases_.find(name);
  return it == phases_.end() ? empty : it->second;
}

double Profiler::SelfMs(const std::string& phase_name,
                        const std::vector<std::string>& names) const {
  const SpanTable& table = phase(phase_name);
  double sum = 0.0;
  for (const auto& [name, totals] : table) {
    for (const std::string& want : names) {
      const bool prefix = !want.empty() && want.back() == '*';
      if (prefix ? name.compare(0, want.size() - 1, want, 0,
                                want.size() - 1) == 0
                 : name == want) {
        sum += totals.self_ms;
        break;
      }
    }
  }
  return sum;
}

double Profiler::TotalMs(const std::string& phase_name,
                         const std::string& name) const {
  const SpanTable& table = phase(phase_name);
  auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.total_ms;
}

uint64_t Profiler::Count(const std::string& phase_name,
                         const std::string& name) const {
  const SpanTable& table = phase(phase_name);
  auto it = table.find(name);
  return it == table.end() ? 0 : it->second.count;
}

void WarmUpCpus(double seconds) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    threads.emplace_back([&] {
      uint64_t x = 1;
      while (Clock::now() < end) {
        for (int i = 0; i < 10000; ++i) x = x * 6364136223846793005ull + 1;
      }
      sink += x;
    });
  }
  for (std::thread& t : threads) t.join();
}

void ReleaseCachedMemory() {
  lasagne::BufferPool::Global().Trim();
  malloc_trim(0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Sample MakeSample(std::vector<uint32_t> ids, const lasagne::Tensor& logits) {
  Sample s;
  s.ids = std::move(ids);
  s.logits.assign(logits.data(), logits.data() + logits.rows() * logits.cols());
  return s;
}

bool RowsBitEqual(const Sample& sample, const lasagne::Tensor& full) {
  const size_t cols = full.cols();
  if (sample.logits.size() != sample.ids.size() * cols) return false;
  for (size_t i = 0; i < sample.ids.size(); ++i) {
    if (sample.ids[i] >= full.rows()) return false;
    if (std::memcmp(sample.logits.data() + i * cols,
                    full.data() + sample.ids[i] * cols,
                    cols * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool AllRowsBitEqual(const std::vector<Sample>& samples,
                     const lasagne::Tensor& full) {
  bool equal = !samples.empty();
  for (const Sample& s : samples) equal = equal && RowsBitEqual(s, full);
  return equal;
}

void PerturbFirstLogit(Sample& sample) {
  if (sample.logits.empty()) return;
  uint32_t bits = 0;
  std::memcpy(&bits, sample.logits.data(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(sample.logits.data(), &bits, sizeof(bits));
}

}  // namespace perfbench
