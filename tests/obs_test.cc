// Tests for the observability layer: metrics registry (counters,
// gauges, log2-bucket histograms, concurrent updates, scrape formats),
// scoped tracing (nesting, ring buffers, Chrome-trace JSON round-trip),
// the minimal JSON document used by the exporters, and the training
// telemetry writer.

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace lasagne::obs {
namespace {

/// RAII: enables metrics for one test, restores the disabled default.
struct MetricsOn {
  MetricsOn() {
    EnableMetrics();
    MetricsRegistry::Global().Reset();
  }
  ~MetricsOn() {
    MetricsRegistry::Global().Reset();
    DisableMetrics();
  }
};

/// RAII: enables tracing for one test, restores the disabled default.
struct TracingOn {
  explicit TracingOn(size_t capacity = 1 << 16) {
    EnableTracing(capacity);
    ClearTrace();
  }
  ~TracingOn() {
    DisableTracing();
    ClearTrace();
  }
};

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

// -- JSON -------------------------------------------------------------------

TEST(ObsJsonTest, ParseRoundTrip) {
  const std::string text =
      R"({"a":1.5,"b":[true,null,"x\n\"y"],"c":{"d":-2}})";
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_DOUBLE_EQ(root.Find("a")->AsDouble(), 1.5);
  const JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_TRUE(b->AsArray()[0].AsBool());
  EXPECT_TRUE(b->AsArray()[1].is_null());
  EXPECT_EQ(b->AsArray()[2].AsString(), "x\n\"y");
  EXPECT_DOUBLE_EQ(root.Find("c")->Find("d")->AsDouble(), -2.0);
  // Dump -> Parse is an identity on the document.
  StatusOr<JsonValue> reparsed = JsonValue::Parse(root.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Dump(), root.Dump());
}

TEST(ObsJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(ObsJsonTest, NumberFormatting) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-0.5), "-0.5");
  // NaN/Inf are not valid JSON; the writer degrades to null.
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// -- Metrics ----------------------------------------------------------------

TEST(ObsMetricsTest, CounterAccumulatesAcrossStripes) {
  MetricsOn on;
  Counter& c = MetricsRegistry::Global().GetCounter("test.counter");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsMetricsTest, GaugeLastWriteWins) {
  MetricsOn on;
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);
}

TEST(ObsMetricsTest, RegistryReturnsSameInstance) {
  MetricsOn on;
  Counter& a = MetricsRegistry::Global().GetCounter("test.same");
  Counter& b = MetricsRegistry::Global().GetCounter("test.same");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  // Bucket 0: v < 1. Bucket i: [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(0.999), 0u);
  EXPECT_EQ(Histogram::BucketFor(1.0), 1u);
  EXPECT_EQ(Histogram::BucketFor(1.999), 1u);
  EXPECT_EQ(Histogram::BucketFor(2.0), 2u);
  EXPECT_EQ(Histogram::BucketFor(3.999), 2u);
  EXPECT_EQ(Histogram::BucketFor(4.0), 3u);
  EXPECT_EQ(Histogram::BucketFor(1024.0), 11u);
  // Negative and absurdly large values clamp to the end buckets.
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1e300), Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerEdge(1), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerEdge(11), 1024.0);
}

TEST(ObsMetricsTest, HistogramStatsAndPercentiles) {
  MetricsOn on;
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.hist");
  for (int i = 0; i < 90; ++i) h.Record(1.5);   // bucket 1, upper edge 2
  for (int i = 0; i < 10; ++i) h.Record(100.0);  // bucket 7, upper edge 128
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_NEAR(h.Sum(), 90 * 1.5 + 10 * 100.0, 1e-9);
  EXPECT_NEAR(h.Mean(), (90 * 1.5 + 10 * 100.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 128.0);
  std::array<uint64_t, Histogram::kBuckets> buckets = h.BucketCounts();
  EXPECT_EQ(buckets[1], 90u);
  EXPECT_EQ(buckets[7], 10u);
}

TEST(ObsMetricsTest, ConcurrentIncrementsFromParallelFor) {
  MetricsOn on;
  Counter& c = MetricsRegistry::Global().GetCounter("test.parallel");
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.parallel_h");
  constexpr size_t kItems = 100000;
  ParallelFor(0, kItems, /*grain=*/1024, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      c.Increment();
      h.Record(static_cast<double>(i % 7));
    }
  });
  EXPECT_EQ(c.Value(), kItems);
  EXPECT_EQ(h.Count(), kItems);
}

TEST(ObsMetricsTest, ConcurrentIncrementsFromRawThreads) {
  MetricsOn on;
  Counter& c = MetricsRegistry::Global().GetCounter("test.threads");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetricsTest, ScrapeTextFormat) {
  MetricsOn on;
  MetricsRegistry::Global().GetCounter("test.a").Increment(3);
  MetricsRegistry::Global().GetGauge("test.b").Set(1.5);
  MetricsRegistry::Global().GetHistogram("test.c").Record(10.0);
  const std::string text = MetricsRegistry::Global().ScrapeText();
  EXPECT_NE(text.find("counter test.a 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge test.b 1.5"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram test.c count=1"), std::string::npos)
      << text;
}

TEST(ObsMetricsTest, ScrapeJsonParses) {
  MetricsOn on;
  MetricsRegistry::Global().GetCounter("test.j").Increment(5);
  MetricsRegistry::Global().GetHistogram("test.jh").Record(3.0);
  StatusOr<JsonValue> parsed =
      JsonValue::Parse(MetricsRegistry::Global().ScrapeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("test.j")->AsDouble(), 5.0);
  const JsonValue* hist = root.Find("histograms")->Find("test.jh");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsDouble(), 1.0);
}

TEST(ObsMetricsTest, DisabledGuardSkipsWork) {
  DisableMetrics();
  EXPECT_FALSE(MetricsEnabled());
  // The guard is the documented call-site contract: with metrics off,
  // instrumentation never reaches the registry.
  bool touched = false;
  if (MetricsEnabled()) touched = true;
  EXPECT_FALSE(touched);
}

// -- Tracing ----------------------------------------------------------------

TEST(ObsTraceTest, RecordsNestedSpansWithDepth) {
  TracingOn on;
  {
    LASAGNE_TRACE_SCOPE("outer");
    {
      LASAGNE_TRACE_SCOPE("inner");
    }
  }
  std::vector<TraceEvent> events = CollectTrace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer starts first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_GE(events[0].duration_ns, events[1].duration_ns);
}

TEST(ObsTraceTest, DisabledTracingRecordsNothing) {
  ClearTrace();
  DisableTracing();
  {
    LASAGNE_TRACE_SCOPE("ignored");
  }
  EXPECT_TRUE(CollectTrace().empty());
}

TEST(ObsTraceTest, SpansFromWorkerThreadsGetDistinctTids) {
  TracingOn on;
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([] {
      LASAGNE_TRACE_SCOPE("worker");
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<TraceEvent> events = CollectTrace();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].tid == events[1].tid &&
               events[1].tid == events[2].tid);
}

TEST(ObsTraceTest, RingBufferKeepsNewestEvents) {
  TracingOn on(/*capacity=*/8);
  const uint64_t dropped_before = TraceDroppedEvents();
  // Ring capacity applies to buffers created after EnableTracing, so
  // record from a fresh thread: its buffer is born with 8 slots.
  std::thread recorder([] {
    for (int i = 0; i < 100; ++i) {
      LASAGNE_TRACE_SCOPE("span");
    }
  });
  recorder.join();
  std::vector<TraceEvent> events = CollectTrace();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_GE(TraceDroppedEvents() - dropped_before, 92u);
}

TEST(ObsTraceTest, DroppedSpansAppearInTheMetricsScrape) {
  TracingOn on(/*capacity=*/4);
  ASSERT_EQ(TraceDroppedEvents(), 0u);
  // A fresh thread's ring is born with 4 slots; 10 spans drop 6.
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      LASAGNE_TRACE_SCOPE("span");
    }
  });
  recorder.join();
  ASSERT_EQ(TraceDroppedEvents(), 6u);
  const std::string text = MetricsRegistry::Global().ScrapeText();
  EXPECT_NE(text.find("gauge obs.trace.dropped_spans 6\n"), std::string::npos)
      << text;
  StatusOr<JsonValue> parsed =
      JsonValue::Parse(MetricsRegistry::Global().ScrapeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* gauge =
      parsed.value().Find("gauges")->Find("obs.trace.dropped_spans");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->AsDouble(), 6.0);
  // ClearTrace forgets the overflow; the next scrape reads 0 again.
  ClearTrace();
  EXPECT_NE(MetricsRegistry::Global().ScrapeText().find(
                "gauge obs.trace.dropped_spans 0\n"),
            std::string::npos);
}

TEST(ObsTraceTest, JsonExportRoundTrips) {
  TracingOn on;
  {
    LASAGNE_TRACE_SCOPE("alpha");
    LASAGNE_TRACE_SCOPE("beta");
  }
  StatusOr<JsonValue> parsed = JsonValue::Parse(TraceToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 2u);
  for (const JsonValue& event : events->AsArray()) {
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    EXPECT_EQ(event.Find("cat")->AsString(), "lasagne");
    EXPECT_GE(event.Find("dur")->AsDouble(), 0.0);
    const std::string& name = event.Find("name")->AsString();
    EXPECT_TRUE(name == "alpha" || name == "beta") << name;
  }
}

TEST(ObsTraceTest, WriteTraceJsonProducesReadableFile) {
  TracingOn on;
  {
    LASAGNE_TRACE_SCOPE("file_span");
  }
  const std::string path = TempPath("obs_trace.json");
  ASSERT_TRUE(WriteTraceJson(path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<JsonValue> parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(
      parsed.value().Find("traceEvents")->AsArray().size(), 1u);
  std::remove(path.c_str());
}

TEST(ObsTraceTest, DisabledOverheadStaysSmall) {
  // With tracing off a scope is one relaxed load; assert it cannot be
  // catastrophically slow (generous bound — this is a smoke test, the
  // real measurement lives in bench_micro_kernels).
  DisableTracing();
  constexpr int kIters = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    LASAGNE_TRACE_SCOPE("noop");
  }
  const auto end = std::chrono::steady_clock::now();
  const double ns_per =
      std::chrono::duration<double, std::nano>(end - start).count() /
      kIters;
  EXPECT_LT(ns_per, 100.0);
}

// -- Telemetry --------------------------------------------------------------

TEST(ObsTelemetryTest, StreamsJsonlAndKeepsRecords) {
  const std::string path = TempPath("obs_telemetry.jsonl");
  TelemetryWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  writer.RecordEpoch({0, 1.5, 0.3, 0.9, 0.02, 12.5});
  writer.RecordRecovery({1, "non-finite gradient", 0.01});
  writer.RecordEpoch({1, 1.2, 0.4, 0.7, 0.01, 11.0});
  writer.Close();
  EXPECT_EQ(writer.epochs().size(), 2u);
  EXPECT_EQ(writer.recoveries().size(), 1u);

  // Every line must be a standalone JSON object (the JSONL contract).
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> types;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    types.push_back(parsed.value().Find("type")->AsString());
  }
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], "epoch");
  EXPECT_EQ(types[1], "recovery");
  EXPECT_EQ(types[2], "epoch");
  std::remove(path.c_str());
}

TEST(ObsTelemetryTest, SummaryTableReflectsRecords) {
  TelemetryWriter writer;  // in-memory only
  writer.RecordEpoch({0, 2.0, 0.2, 1.0, 0.02, 10.0});
  writer.RecordEpoch({1, 1.0, 0.6, 0.5, 0.02, 20.0});
  const std::string table = writer.SummaryTable();
  EXPECT_NE(table.find("epochs"), std::string::npos);
  EXPECT_NE(table.find("2 -> 1"), std::string::npos) << table;
  EXPECT_NE(table.find("0.6000"), std::string::npos) << table;
  EXPECT_NE(table.find("recoveries         0"), std::string::npos)
      << table;
}

TEST(ObsTelemetryTest, OpenFailureIsReported) {
  TelemetryWriter writer;
  EXPECT_FALSE(writer.Open("/nonexistent-dir/obs.jsonl").ok());
}

}  // namespace
}  // namespace lasagne::obs
