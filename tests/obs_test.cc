// Unit tests for src/obs/: metrics registry, tracing spans, exporters.
//
// The registry and recorder are process-wide singletons, so every test uses
// its own instrument names and resets the recorder it touches.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/propagate.h"
#include "src/obs/seqlock_ring.h"
#include "src/obs/trace.h"
#include "src/obs/trace_merge.h"
#include "src/util/file.h"

namespace indaas {
namespace obs {
namespace {

// --- Minimal JSON syntax validator (recursive descent) ---

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing '"'
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Counters ---

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.concurrent");
  counter->Reset();
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(CounterTest, ScrapeWhileWritingNeverExceedsFinalTotal) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.scrape");
  counter->Reset();
  constexpr uint64_t kTotal = 200000;
  std::thread writer([counter] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      counter->Add(1);
    }
  });
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    uint64_t now = counter->Value();
    EXPECT_LE(last, now);  // monotone under a single writer
    EXPECT_LE(now, kTotal);
    last = now;
  }
  writer.join();
  EXPECT_EQ(counter->Value(), kTotal);
}

TEST(RegistryTest, PointersStableAcrossLookupsAndReset) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* first = registry.GetCounter("test.registry.stable");
  first->Add(7);
  Counter* second = registry.GetCounter("test.registry.stable");
  EXPECT_EQ(first, second);
  registry.Reset();
  EXPECT_EQ(first->Value(), 0u);  // zeroed in place, pointer still live
  first->Add(3);
  EXPECT_EQ(second->Value(), 3u);
}

// --- Gauges ---

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge.basic");
  gauge->Reset();
  gauge->Set(5);
  gauge->Add(3);
  EXPECT_EQ(gauge->Value(), 8);
  gauge->Add(-6);
  EXPECT_EQ(gauge->Value(), 2);
  EXPECT_EQ(gauge->Max(), 8);  // peak survives the drop
}

// --- Histograms ---

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.hist.bounds", {1.0, 2.0, 4.0});
  hist->Reset();
  hist->Record(0.5);  // (-inf, 1]
  hist->Record(1.0);  // (-inf, 1]  -- bounds are inclusive
  hist->Record(1.5);  // (1, 2]
  hist->Record(2.0);  // (1, 2]
  hist->Record(4.0);  // (2, 4]
  hist->Record(5.0);  // overflow
  Histogram::Snapshot snap = hist->Scrape();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.hist.concurrent", {10.0, 100.0});
  hist->Reset();
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([hist] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist->Record(static_cast<double>(i % 200));
      }
    });
  }
  // Scrape concurrently with the writers; totals must never go backwards.
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    uint64_t now = hist->Scrape().count;
    EXPECT_LE(last, now);
    last = now;
  }
  for (auto& worker : workers) {
    worker.join();
  }
  Histogram::Snapshot snap = hist->Scrape();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, snap.count);
}

// --- Spans ---

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(false);
  recorder.Reset(64);
  {
    INDAAS_TRACE_SPAN_NAMED(span, "off");
    EXPECT_FALSE(span.recording());
  }
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceTest, NestedSpansFormParentChain) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset(64);
  recorder.SetEnabled(true);
  {
    INDAAS_TRACE_SPAN_NAMED(outer, "outer");
    outer.Annotate("key", "value");
    {
      INDAAS_TRACE_SPAN("middle");
      { INDAAS_TRACE_SPAN("inner"); }
    }
  }
  recorder.SetEnabled(false);
  std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Snapshot is ordered by claim (start) order: outer, middle, inner.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[0].tid, spans[2].tid);
  // Children are contained in the parent's [start, start+dur] window.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].start_us + spans[1].dur_us, spans[0].start_us + spans[0].dur_us);
  ASSERT_EQ(spans[0].annotations.size(), 1u);
  EXPECT_EQ(spans[0].annotations[0].first, "key");
  EXPECT_EQ(spans[0].annotations[0].second, "value");
}

TEST(TraceTest, SpansOnDifferentThreadsGetDifferentTids) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset(64);
  recorder.SetEnabled(true);
  {
    INDAAS_TRACE_SPAN("main-root");
    std::thread worker([] { INDAAS_TRACE_SPAN("worker-root"); });
    worker.join();
  }
  recorder.SetEnabled(false);
  std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
  // A root on another thread has no parent even while main's span is open.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(TraceTest, FullRingDropsInsteadOfWrapping) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset(4);
  recorder.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    INDAAS_TRACE_SPAN("burst");
  }
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.Snapshot().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  recorder.Reset(64);
  EXPECT_EQ(recorder.dropped(), 0u);
}

// --- Exporters ---

TEST(ExportTest, StageAggregationGroupsByName) {
  std::vector<SpanRecord> spans;
  SpanRecord a;
  a.name = "build";
  a.dur_us = 100;
  SpanRecord b;
  b.name = "enumerate";
  b.dur_us = 300;
  SpanRecord c;
  c.name = "build";
  c.dur_us = 50;
  spans = {a, b, c};
  std::vector<StageStat> stages = AggregateStages(spans);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "build");  // first-occurrence order
  EXPECT_EQ(stages[0].count, 2u);
  EXPECT_EQ(stages[0].total_us, 150u);
  EXPECT_EQ(stages[0].min_us, 50u);
  EXPECT_EQ(stages[0].max_us, 100u);
  EXPECT_EQ(stages[1].name, "enumerate");
  EXPECT_EQ(stages[1].count, 1u);
}

TEST(ExportTest, MetricsJsonIsValidAndContainsInstruments) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("test.export.counter")->Add(42);
  registry.GetGauge("test.export.gauge")->Set(-3);
  registry.GetHistogram("test.export.hist", {1.0, 10.0})->Record(5.0);
  std::vector<StageStat> stages = {{"stage.one", 2, 1500, 500, 1000}};
  std::string json = MetricsToJson(registry.Snapshot(), stages);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"stage.one\""), std::string::npos);
}

TEST(ExportTest, ChromeTraceIsValidJsonWithNestedSpans) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset(64);
  recorder.SetEnabled(true);
  {
    INDAAS_TRACE_SPAN_NAMED(outer, "sia.build");
    outer.Annotate("nodes", "17");
    outer.Annotate("quote", "needs \"escaping\"\n");
    INDAAS_TRACE_SPAN("sia.enumerate");
  }
  recorder.SetEnabled(false);
  std::vector<SpanRecord> spans = recorder.Snapshot();
  std::string json = SpansToChromeTrace(spans);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("sia.build"), std::string::npos);
  EXPECT_NE(json.find("sia.enumerate"), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\""), std::string::npos);  // escaped quote
}

TEST(ExportTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  std::string escaped = JsonEscape(std::string("a\x01z"));
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
}

TEST(ExportTest, RenderersProduceNonEmptyText) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.render.counter")->Add(1);
  std::string text = RenderMetricsText(registry.Snapshot());
  EXPECT_NE(text.find("test.render.counter"), std::string::npos);
  std::vector<StageStat> stages = {{"stage", 1, 1000, 1000, 1000}};
  std::string table = RenderStageTable(stages);
  EXPECT_NE(table.find("stage"), std::string::npos);
}

// --- Trace-context propagation ---

TEST(PropagateTest, ScopedContextInstallsRestoresAndClears) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    ScopedTraceContext outer(TraceContext{111, 5});
    EXPECT_EQ(CurrentTraceContext().trace_id, 111u);
    EXPECT_EQ(CurrentTraceContext().parent_span_id, 5u);
    {
      ScopedTraceContext inner(TraceContext{222, 9});
      EXPECT_EQ(CurrentTraceContext().trace_id, 222u);
    }
    // Inner scope restores the outer context.
    EXPECT_EQ(CurrentTraceContext().trace_id, 111u);
    {
      // Installing an invalid context deliberately clears the slot (pool
      // threads adopt "no identity" for traceless requests).
      ScopedTraceContext cleared(TraceContext{});
      EXPECT_FALSE(CurrentTraceContext().valid());
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, 111u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(PropagateTest, WireSpanIdMapsNoSpanToZero) {
  EXPECT_EQ(WireSpanId(-1), 0u);
  EXPECT_EQ(WireSpanId(0), 1u);
  EXPECT_EQ(WireSpanId(41), 42u);
}

TEST(PropagateTest, TraceIdGenerators) {
  // Derived ids are deterministic in the seed (ring peers agree without
  // coordination), never zero, and spread across seeds.
  EXPECT_EQ(DeriveTraceId(42), DeriveTraceId(42));
  EXPECT_NE(DeriveTraceId(42), DeriveTraceId(43));
  std::set<uint64_t> derived;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    uint64_t id = DeriveTraceId(seed);
    EXPECT_NE(id, 0u);
    derived.insert(id);
  }
  EXPECT_EQ(derived.size(), 64u);
  // Fresh ids are nonzero and distinct call to call.
  uint64_t a = NewTraceId();
  uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceTest, SpansCaptureAmbientTraceContext) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset();
  recorder.SetEnabled(true);
  {
    ScopedTraceContext ambient(TraceContext{777, 3});
    INDAAS_TRACE_SPAN_NAMED(root, "prop.root");
    { INDAAS_TRACE_SPAN("prop.child"); }
  }
  { INDAAS_TRACE_SPAN("prop.local"); }
  recorder.SetEnabled(false);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : recorder.Snapshot()) {
    by_name[span.name] = span;
  }
  ASSERT_EQ(by_name.count("prop.root"), 1u);
  ASSERT_EQ(by_name.count("prop.child"), 1u);
  ASSERT_EQ(by_name.count("prop.local"), 1u);
  // The root adopts both halves of the ambient context...
  EXPECT_EQ(by_name["prop.root"].trace_id, 777u);
  EXPECT_EQ(by_name["prop.root"].remote_parent, 3u);
  // ...the nested span inherits only the trace id (its parent is local)...
  EXPECT_EQ(by_name["prop.child"].trace_id, 777u);
  EXPECT_EQ(by_name["prop.child"].remote_parent, 0u);
  EXPECT_EQ(by_name["prop.child"].parent, by_name["prop.root"].id);
  // ...and spans outside any context stay process-local.
  EXPECT_EQ(by_name["prop.local"].trace_id, 0u);
  EXPECT_EQ(by_name["prop.local"].remote_parent, 0u);
}

// --- Prometheus exposition ---

// Splits exposition text into lines, dropping the trailing empty line.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ExportTest, PrometheusExpositionIsWellFormed) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"net.bytes_sent", 4096}, {"svc.rpcs.Ping", 7}};
  snapshot.gauges = {{"svc.connections_active", 2, 6}};
  Histogram::Snapshot h;
  h.name = "svc.rpc_seconds.Ping";
  h.bounds = {0.001, 0.01};
  h.counts = {3, 2, 1};
  h.count = 6;
  h.sum = 0.05;
  snapshot.histograms = {h};
  const std::string text = MetricsToPrometheus(snapshot);

  std::map<std::string, int> type_lines;      // family -> # TYPE count
  std::map<std::string, int> sample_series;   // name{labels} -> count
  for (const std::string& line : Lines(text)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
      ++type_lines[family];
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;
    // Sample line: everything before the last space is name{labels}.
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    ++sample_series[series];
    // Metric names must be prefixed and sanitized to the Prometheus charset.
    EXPECT_EQ(series.rfind("indaas_", 0), 0u) << series;
    for (char c : series.substr(0, series.find('{'))) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
          << series;
    }
  }
  // Exactly one # TYPE per family, no duplicate sample series.
  for (const auto& [family, count] : type_lines) {
    EXPECT_EQ(count, 1) << family;
  }
  for (const auto& [series, count] : sample_series) {
    EXPECT_EQ(count, 1) << series;
  }
  // Spot-check the histogram rendering: per-RPC series fold into the labeled
  // indaas_svc_rpc_seconds family with cumulative buckets ending at +Inf ==
  // total count, plus labeled _sum and _count samples.
  EXPECT_EQ(type_lines.count("indaas_svc_rpc_seconds"), 1u);
  EXPECT_NE(text.find("indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("indaas_svc_rpc_seconds_count{rpc=\"Ping\"} 6"), std::string::npos);
  EXPECT_NE(text.find("indaas_net_bytes_sent 4096"), std::string::npos);
  // The gauge's high-water mark becomes its own family.
  EXPECT_EQ(type_lines.count("indaas_svc_connections_active"), 1u);
  EXPECT_EQ(type_lines.count("indaas_svc_connections_active_max"), 1u);
}

// --- Trace merge ---

TEST(TraceMergeTest, ParsesChromeTraceBackIntoEvents) {
  SpanRecord root;
  root.name = "svc.rpc";
  root.start_us = 1000;
  root.dur_us = 400;
  root.tid = 0;
  root.id = 0;
  root.parent = -1;
  root.trace_id = 0xDEADBEEFCAFEF00DULL;  // only representable as a string in JSON
  root.remote_parent = 7;
  root.annotations = {{"type", "Ping"}};
  SpanRecord child = root;
  child.name = "sia.rank";
  child.id = 1;
  child.parent = 0;
  child.depth = 1;
  child.remote_parent = 0;
  child.annotations.clear();
  const std::string json = SpansToChromeTrace({root, child});

  auto parsed = ParseChromeTrace(json, "a.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), 2u);
  const MergeEvent& event = parsed->events[0];
  EXPECT_EQ(event.name, "svc.rpc");
  EXPECT_EQ(event.ts, 1000u);
  EXPECT_EQ(event.dur, 400u);
  EXPECT_EQ(event.span_id, 0);
  EXPECT_EQ(event.trace_id, root.trace_id);  // exact, not rounded via double
  EXPECT_EQ(event.remote_parent, 7u);
  ASSERT_FALSE(event.args.empty());
  const MergeEvent& nested = parsed->events[1];
  EXPECT_EQ(nested.parent, 0);
  EXPECT_EQ(nested.remote_parent, 0u);
  EXPECT_FALSE(ParseChromeTrace("not json", "bad").ok());
  EXPECT_FALSE(ParseChromeTrace("{\"other\":1}", "bad").ok());
}

// A client/server span pair over a known artificial skew: server clock runs
// 500000 µs ahead of the client's.
std::vector<ProcessTrace> SkewedRpcTraces() {
  ProcessTrace client;
  client.source = "client.json";
  MergeEvent rpc;
  rpc.name = "svc.client.rpc";
  rpc.ts = 1000;
  rpc.dur = 400;  // midpoint 1200
  rpc.span_id = 4;
  rpc.trace_id = 99;
  client.events.push_back(rpc);
  ProcessTrace server;
  server.source = "server.json";
  MergeEvent handler;
  handler.name = "svc.rpc";
  handler.ts = 501000;
  handler.dur = 200;  // midpoint 501100
  handler.trace_id = 99;
  handler.remote_parent = 5;  // wire id of client span 4
  server.events.push_back(handler);
  return {client, server};
}

TEST(TraceMergeTest, RecoversClockOffsetFromRpcPair) {
  auto offsets = EstimateClockOffsets(SkewedRpcTraces());
  ASSERT_TRUE(offsets.ok());
  ASSERT_EQ(offsets->size(), 2u);
  EXPECT_EQ((*offsets)[0], 0);
  // Midpoint alignment: 1200 - 501100.
  EXPECT_EQ((*offsets)[1], -499900);
}

TEST(TraceMergeTest, RecoversClockOffsetFromRingHops) {
  // Two ring peers whose same-xseq exchange hops end simultaneously; peer
  // 1's clock reads 250 µs later.
  ProcessTrace peer0, peer1;
  peer0.source = "peer0.json";
  peer1.source = "peer1.json";
  for (int xseq = 0; xseq < 3; ++xseq) {
    MergeEvent hop;
    hop.name = "pia.ring.exchange";
    hop.trace_id = 1234;
    hop.args = {{"xseq", std::to_string(xseq)}};
    hop.ts = 1000 + 100 * static_cast<uint64_t>(xseq);
    hop.dur = 50;
    peer0.events.push_back(hop);
    hop.ts += 250;
    peer1.events.push_back(hop);
  }
  auto offsets = EstimateClockOffsets({peer0, peer1});
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 0);
  EXPECT_EQ((*offsets)[1], -250);
  // A third file with no cross-process evidence keeps its own clock.
  ProcessTrace stranger;
  stranger.source = "stranger.json";
  auto with_stranger = EstimateClockOffsets({peer0, peer1, stranger});
  ASSERT_TRUE(with_stranger.ok());
  EXPECT_EQ((*with_stranger)[2], 0);
}

// Files that share no pairing evidence must keep offset 0 — never borrow an
// offset from an unrelated pairing. A client trace whose server-side spans
// were lost (crashed server, missing file) is the canonical case.
TEST(TraceMergeTest, MissingServerSpansLeaveOffsetsAtZero) {
  ProcessTrace client;
  client.source = "client.json";
  MergeEvent rpc;
  rpc.name = "svc.client.rpc";
  rpc.ts = 1000;
  rpc.dur = 400;
  rpc.span_id = 4;
  rpc.trace_id = 99;
  client.events.push_back(rpc);
  ProcessTrace server;  // the server file exists but has no svc.rpc spans
  server.source = "server.json";
  MergeEvent unrelated;
  unrelated.name = "sia.rank";
  unrelated.ts = 777;
  unrelated.dur = 10;
  server.events.push_back(unrelated);

  auto offsets = EstimateClockOffsets({client, server});
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 0);
  EXPECT_EQ((*offsets)[1], 0);
  // The merge itself still succeeds (unaligned, but valid).
  auto merged = MergeChromeTraces({client, server});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(JsonValidator(*merged).Valid());
}

TEST(TraceMergeTest, SingleProcessTraceMergesCleanly) {
  ProcessTrace only;
  only.source = "only.json";
  MergeEvent span;
  span.name = "svc.client.rpc";
  span.ts = 5000;
  span.dur = 100;
  span.span_id = 1;
  span.trace_id = 42;
  only.events.push_back(span);
  auto offsets = EstimateClockOffsets({only});
  ASSERT_TRUE(offsets.ok());
  ASSERT_EQ(offsets->size(), 1u);
  EXPECT_EQ((*offsets)[0], 0);
  auto merged = MergeChromeTraces({only});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(JsonValidator(*merged).Valid());
  auto reparsed = ParseChromeTrace(*merged, "merged.json");
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->events.size(), 1u);
  EXPECT_EQ(reparsed->events[0].ts, 0u);  // shifted so the timeline starts at 0
}

// Duplicate span ids (the same file passed twice, or id reuse) make a
// pairing key ambiguous; the estimator must drop it rather than cross-match
// every copy and poison the offset mean.
TEST(TraceMergeTest, DuplicateSpanIdsAreDroppedNotMispaired) {
  ProcessTrace client;
  client.source = "client.json";
  MergeEvent rpc;
  rpc.name = "svc.client.rpc";
  rpc.ts = 1000;
  rpc.dur = 400;
  rpc.span_id = 4;
  rpc.trace_id = 99;
  client.events.push_back(rpc);
  rpc.ts = 90000;  // a second client span claiming the SAME identity
  client.events.push_back(rpc);
  ProcessTrace server;
  server.source = "server.json";
  MergeEvent handler;
  handler.name = "svc.rpc";
  handler.ts = 501000;
  handler.dur = 200;
  handler.trace_id = 99;
  handler.remote_parent = 5;
  server.events.push_back(handler);

  auto offsets = EstimateClockOffsets({client, server});
  ASSERT_TRUE(offsets.ok());
  // Ambiguous: which client span caused the server span is unknowable, so
  // no estimate is produced and the server file keeps its own clock.
  EXPECT_EQ((*offsets)[1], 0);

  // Duplicated *server* spans are equally ambiguous.
  ProcessTrace client2;
  client2.source = "client2.json";
  MergeEvent rpc2;
  rpc2.name = "svc.client.rpc";
  rpc2.ts = 1000;
  rpc2.dur = 400;
  rpc2.span_id = 4;
  rpc2.trace_id = 99;
  client2.events.push_back(rpc2);
  ProcessTrace server2;
  server2.source = "server2.json";
  server2.events.push_back(handler);
  server2.events.push_back(handler);  // duplicate claims the same parent
  auto offsets2 = EstimateClockOffsets({client2, server2});
  ASSERT_TRUE(offsets2.ok());
  EXPECT_EQ((*offsets2)[1], 0);

  // An unambiguous pair alongside the duplicates still anchors the file —
  // ambiguity degrades coverage, not unrelated evidence.
  MergeEvent clean_client = rpc;
  clean_client.span_id = 10;
  clean_client.ts = 2000;
  clean_client.dur = 400;  // midpoint 2200
  client.events.push_back(clean_client);
  MergeEvent clean_server = handler;
  clean_server.remote_parent = 11;
  clean_server.ts = 502000;
  clean_server.dur = 200;  // midpoint 502100
  server.events.push_back(clean_server);
  auto offsets3 = EstimateClockOffsets({client, server});
  ASSERT_TRUE(offsets3.ok());
  EXPECT_EQ((*offsets3)[1], 2200 - 502100);
}

TEST(TraceMergeTest, MergedTraceIsAlignedValidJson) {
  auto merged = MergeChromeTraces(SkewedRpcTraces());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(JsonValidator(*merged).Valid()) << *merged;
  // Each input file becomes its own pid with a process_name metadata row and
  // its estimated offset recorded.
  EXPECT_NE(merged->find("client.json"), std::string::npos);
  EXPECT_NE(merged->find("server.json"), std::string::npos);
  EXPECT_NE(merged->find("process_name"), std::string::npos);
  EXPECT_NE(merged->find("clock_offset_us"), std::string::npos);
  // The timeline is shifted so the earliest event starts at 0, and the
  // server span lands inside the client span (1100..1300 vs 1000..1400
  // before the common shift of -1000).
  auto reparsed = ParseChromeTrace(*merged, "merged.json");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->events.size(), 2u);
  uint64_t client_ts = 0, client_dur = 0, server_ts = 0, server_dur = 0;
  for (const MergeEvent& event : reparsed->events) {
    if (event.name == "svc.client.rpc") {
      client_ts = event.ts;
      client_dur = event.dur;
    } else if (event.name == "svc.rpc") {
      server_ts = event.ts;
      server_dur = event.dur;
    }
  }
  EXPECT_EQ(client_ts, 0u);
  EXPECT_GE(server_ts, client_ts);
  EXPECT_LE(server_ts + server_dur, client_ts + client_dur);
}

// --- Structured logging ---

// Swaps in a capture sink for the test's lifetime and restores the default
// (and the default Info threshold) on the way out.
class CapturedLogs {
 public:
  CapturedLogs() : sink_(std::make_shared<CaptureLogSink>()) {
    Logger::Global().SetSink(sink_);
  }
  ~CapturedLogs() {
    Logger::Global().SetSink(nullptr);
    Logger::Global().SetMinSeverity(LogSeverity::kInfo);
  }
  std::vector<LogRecord> Take() { return sink_->Take(); }

 private:
  std::shared_ptr<CaptureLogSink> sink_;
};

TEST(LogTest, SeverityGatesBeforeEmission) {
  CapturedLogs capture;
  Logger::Global().SetMinSeverity(LogSeverity::kWarn);
  INDAAS_SLOG(Info, "test.dropped").Kv("k", 1);
  INDAAS_SLOG(Warn, "test.kept").Kv("conn", 7u).Kv("why", "slow reader");
  std::vector<LogRecord> records = capture.Take();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, "test.kept");
  EXPECT_EQ(records[0].severity, LogSeverity::kWarn);
  ASSERT_EQ(records[0].fields.size(), 2u);
  EXPECT_EQ(records[0].fields[0].key, "conn");
  EXPECT_EQ(records[0].fields[0].value, "7");
  EXPECT_TRUE(records[0].fields[0].is_number);
  EXPECT_EQ(records[0].fields[1].value, "slow reader");
  EXPECT_FALSE(records[0].fields[1].is_number);
  EXPECT_GT(records[0].line, 0);
}

TEST(LogTest, RecordsCarryAmbientTraceContext) {
  CapturedLogs capture;
  {
    TraceContext context;
    context.trace_id = 0xABCDEF0123456789ULL;
    ScopedTraceContext scoped(context);
    INDAAS_SLOG(Info, "test.traced");
  }
  INDAAS_SLOG(Info, "test.untraced");
  std::vector<LogRecord> records = capture.Take();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 0xABCDEF0123456789ULL);
  EXPECT_EQ(records[1].trace_id, 0u);
}

TEST(LogTest, JsonSinkRendersTypedFields) {
  LogRecord record;
  record.severity = LogSeverity::kWarn;
  record.t_us = 123;
  record.wall_us = 456;
  record.tid = 2;
  record.trace_id = 18446744073709551615ULL;  // u64 max: must stay a string
  record.file = "dir/server.cc";
  record.line = 503;
  record.event = "svc.slow_reader_drop";
  record.suppressed = 12;
  record.fields = {{"conn", "7", true}, {"note", "a \"quoted\" value", false}};
  EXPECT_EQ(JsonLogSink::Render(record),
            "{\"sev\":\"warn\",\"t_us\":123,\"wall_us\":456,"
            "\"event\":\"svc.slow_reader_drop\",\"tid\":2,"
            "\"trace_id\":\"18446744073709551615\",\"src\":\"server.cc:503\","
            "\"suppressed\":12,\"kv\":{\"conn\":7,\"note\":\"a \\\"quoted\\\" value\"}}");
}

TEST(LogTest, RateLimiterAdmitsBudgetPerWindowAndCountsSuppressed) {
  LogSite site;
  const uint64_t t0 = 10'000'000;
  // Budget ceil(2.0) = 2 per one-second window.
  EXPECT_TRUE(site.Admit(2.0, t0));
  EXPECT_TRUE(site.Admit(2.0, t0 + 1000));
  EXPECT_FALSE(site.Admit(2.0, t0 + 2000));
  EXPECT_FALSE(site.Admit(2.0, t0 + 3000));
  // The window rolls over after one second; the next admit carries the
  // suppressed count.
  EXPECT_TRUE(site.Admit(2.0, t0 + 1'000'001));
  EXPECT_EQ(site.TakeSuppressed(), 2u);
  EXPECT_EQ(site.TakeSuppressed(), 0u);  // reset on take
  // per_sec <= 0 always suppresses.
  LogSite never;
  EXPECT_FALSE(never.Admit(0.0, t0));
  EXPECT_EQ(never.TakeSuppressed(), 1u);
}

// --- Flight recorder ---

TEST(FlightRecorderTest, RecordedEventsAppearInSnapshotInOrder) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const uint64_t marker = 0x51A51A00u;
  recorder.Record(FlightEventType::kAccept, marker, 1, 0, 0);
  recorder.Record(FlightEventType::kRpcBegin, marker, 2, 5, 777);
  recorder.Record(FlightEventType::kRpcEnd, marker, 3, 5, 777);
  std::vector<FlightEvent> events = recorder.Snapshot();
  std::vector<FlightEvent> mine;
  for (const FlightEvent& e : events) {
    if (e.a == marker) mine.push_back(e);
  }
  ASSERT_EQ(mine.size(), 3u);
  EXPECT_EQ(mine[0].type, FlightEventType::kAccept);
  EXPECT_EQ(mine[1].type, FlightEventType::kRpcBegin);
  EXPECT_EQ(mine[1].code, 5);
  EXPECT_EQ(mine[1].trace_id, 777u);
  EXPECT_EQ(mine[2].type, FlightEventType::kRpcEnd);
  EXPECT_LE(mine[0].t_us, mine[1].t_us);
  EXPECT_LE(mine[1].t_us, mine[2].t_us);
  EXPECT_GT(mine[0].tid + 1, 0u);  // a real dense thread id was stamped
}

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const uint64_t marker = 0xD15AB1EDu;
  recorder.SetEnabled(false);
  recorder.Record(FlightEventType::kShed, marker, 0, 0, 0);
  recorder.SetEnabled(true);
  for (const FlightEvent& e : recorder.Snapshot()) {
    EXPECT_NE(e.a, marker);
  }
}

TEST(FlightRecorderTest, RingWrapsKeepingTheLatestEvents) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const uint64_t base = 0xFEED0000u;
  const size_t total = FlightRecorder::kRingCapacity + 64;
  for (size_t i = 0; i < total; ++i) {
    recorder.Record(FlightEventType::kLoopLag, base + i, i, 0, 0);
  }
  std::vector<FlightEvent> events = recorder.Snapshot();
  size_t mine = 0;
  bool saw_first = false, saw_last = false;
  for (const FlightEvent& e : events) {
    if (e.a >= base && e.a < base + total) {
      ++mine;
      if (e.a == base) saw_first = true;
      if (e.a == base + total - 1) saw_last = true;
    }
  }
  EXPECT_LE(mine, FlightRecorder::kRingCapacity);
  EXPECT_GE(mine, FlightRecorder::kRingCapacity - 64);  // most of the ring is ours
  EXPECT_TRUE(saw_last);    // newest survives
  EXPECT_FALSE(saw_first);  // oldest was overwritten
}

TEST(FlightRecorderTest, DumpTextRoundTripsThroughParse) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const uint64_t marker = 0xCAFE0001u;
  recorder.Record(FlightEventType::kReadDeadline, marker, 10000, 3, 909);
  std::string dump = recorder.DumpText();
  EXPECT_NE(dump.find("# indaas-flight-recorder v1"), std::string::npos);
  std::vector<FlightEvent> parsed;
  size_t n = FlightRecorder::ParseDumpText(dump, &parsed);
  EXPECT_EQ(n, parsed.size());
  bool found = false;
  for (const FlightEvent& e : parsed) {
    if (e.a == marker) {
      found = true;
      EXPECT_EQ(e.type, FlightEventType::kReadDeadline);
      EXPECT_EQ(e.b, 10000u);
      EXPECT_EQ(e.code, 3);
      EXPECT_EQ(e.trace_id, 909u);
    }
  }
  EXPECT_TRUE(found);
  // Garbage lines are skipped, not fatal.
  std::vector<FlightEvent> partial;
  EXPECT_EQ(FlightRecorder::ParseDumpText("# header\nnot numbers\n1 2 3\n", &partial), 0u);
}

TEST(FlightRecorderTest, ConcurrentWritersSnapshotSafely) {
  FlightRecorder& recorder = FlightRecorder::Global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.Record(FlightEventType::kRpcBegin, 0xBEEF0000u + t, i++, 1, 0);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<FlightEvent> events = recorder.Snapshot();
    // Sorted by timestamp across rings.
    for (size_t j = 1; j < events.size(); ++j) {
      EXPECT_LE(events[j - 1].t_us, events[j].t_us);
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(FlightRecorderTest, Sigusr2DumpsToFileAndRoundTrips) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const std::string path =
      testing::TempDir() + "indaas_flight_test_" + std::to_string(::getpid()) + ".dump";
  std::remove(path.c_str());
  InstallFlightRecorderSignalHandlers(path);
  const uint64_t marker = 0x51697512u;  // "SIGUSR2"-ish
  recorder.Record(FlightEventType::kConnClose, marker, 128, 0, 0);
  ASSERT_EQ(::raise(SIGUSR2), 0);
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  std::vector<FlightEvent> parsed;
  ASSERT_GT(FlightRecorder::ParseDumpText(*text, &parsed), 0u);
  bool found_marker = false, found_dump_event = false;
  for (const FlightEvent& e : parsed) {
    if (e.a == marker && e.type == FlightEventType::kConnClose) found_marker = true;
    if (e.type == FlightEventType::kDump) found_dump_event = true;
  }
  EXPECT_TRUE(found_marker);
  EXPECT_TRUE(found_dump_event);  // the dump marks its own trigger point
  std::remove(path.c_str());
}

// --- Seqlock ring ---

// Word i of the slot published as sequence `seq`; word 0 is seq itself, so
// a reader can tell from any copied slot whether its words belong together.
uint64_t SlotWord(uint64_t seq, size_t i) {
  return i == 0 ? seq : (seq + 1) * 0x9E3779B97F4A7C15ull ^ (i * 0xBF58476D1CE4E5B9ull);
}

TEST(SeqlockRingTest, ReadSkipsOverrunSlotsAndCountsTheLapFrontier) {
  using Ring = SeqlockRing<3, 4>;
  Ring ring;
  auto publish = [&ring](uint64_t seq) {
    Ring::Words words{};
    for (size_t i = 0; i < words.size(); ++i) words[i] = SlotWord(seq, i);
    ring.Publish(words);
  };
  for (uint64_t seq = 0; seq < 10; ++seq) publish(seq);
  std::vector<uint64_t> seen;
  Ring::ReadResult read =
      ring.Read(0, [&seen](const Ring::Words& words) { seen.push_back(words[0]); });
  EXPECT_EQ(read.next, 10u);
  // 0..5 were gone before the read began. Slot 6 is the one the writer
  // overwrites next (head == 6 + capacity): its overwrite may already be in
  // flight, so the check is >=, not >, and 6 is dropped too.
  EXPECT_EQ(read.dropped, 7u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(ring.head(), 10u);

  // Writes that land mid-read (a signal handler dumping its own thread's
  // ring, say) lap the reader: two publishes move head to 12 == 8 +
  // capacity, so slot 8 is dropped while 9 survives.
  seen.clear();
  bool published = false;
  read = ring.Read(7, [&](const Ring::Words& words) {
    seen.push_back(words[0]);
    if (!published) {
      published = true;
      publish(10);
      publish(11);
    }
  });
  EXPECT_EQ(read.next, 10u);
  EXPECT_EQ(read.dropped, 1u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{7, 9}));
  // Resuming from `next` sees exactly what was published since.
  seen.clear();
  read = ring.Read(read.next, [&seen](const Ring::Words& words) { seen.push_back(words[0]); });
  EXPECT_EQ(read.next, 12u);
  EXPECT_EQ(read.dropped, 0u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{10, 11}));
}

TEST(SeqlockRingTest, ConcurrentReadersAcceptOnlyWholeSlotsAndAccountForEveryOne) {
  // A 4-slot ring and a writer that never waits: readers are lapped all
  // the time. Every slot a reader accepts must be one whole publish, and
  // accepted + dropped must cover every sequence exactly once.
  using Ring = SeqlockRing<6, 4>;
  constexpr uint64_t kPublishes = 100000;
  Ring ring;
  std::thread writer([&ring] {
    for (uint64_t seq = 0; seq < kPublishes; ++seq) {
      Ring::Words words{};
      for (size_t i = 0; i < words.size(); ++i) words[i] = SlotWord(seq, i);
      ring.Publish(words);
    }
  });
  struct Tally {
    uint64_t accepted = 0, dropped = 0, torn = 0, out_of_order = 0;
  };
  std::vector<Tally> tallies(2);
  std::vector<std::thread> readers;
  for (Tally& tally : tallies) {
    readers.emplace_back([&ring, &tally] {
      uint64_t from = 0;
      while (from < kPublishes) {
        uint64_t expect_at_least = from;
        Ring::ReadResult read = ring.Read(from, [&](const Ring::Words& words) {
          for (size_t i = 1; i < words.size(); ++i) {
            if (words[i] != SlotWord(words[0], i)) {
              ++tally.torn;
              return;
            }
          }
          if (words[0] < expect_at_least) ++tally.out_of_order;
          expect_at_least = words[0] + 1;
          ++tally.accepted;
        });
        if (expect_at_least > read.next) ++tally.out_of_order;
        tally.dropped += read.dropped;
        from = read.next;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  for (const Tally& tally : tallies) {
    EXPECT_EQ(tally.torn, 0u);
    EXPECT_EQ(tally.out_of_order, 0u);
    EXPECT_EQ(tally.accepted + tally.dropped, kPublishes);
    EXPECT_GT(tally.accepted, 0u);
  }
}

TEST(SeqlockRingTest, FlightRecorderDumpToFdDuringWriteStormIsSelfConsistent) {
  // The sink-based read behind the signal-time dump, against writers that
  // lap their 1024-slot rings while the dump copies them: every dumped
  // event must be one whole Record() (b and trace_id are functions of a).
  FlightRecorder& recorder = FlightRecorder::Global();
  constexpr uint64_t kTag = 0x5EA10C0000000000ull;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      for (uint64_t i = static_cast<uint64_t>(t) << 32; !stop.load(std::memory_order_relaxed);
           ++i) {
        recorder.Record(FlightEventType::kRpcEnd, kTag | i, SlotWord(i, 1),
                        static_cast<uint16_t>(i), SlotWord(i, 2));
      }
    });
  }
  const std::string path =
      testing::TempDir() + "indaas_seqlock_dump_" + std::to_string(::getpid()) + ".dump";
  size_t checked = 0;
  for (int round = 0; round < 5; ++round) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    recorder.DumpToFd(fd);
    ::close(fd);
    auto text = ReadFile(path);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    std::vector<FlightEvent> parsed;
    FlightRecorder::ParseDumpText(*text, &parsed);
    for (const FlightEvent& e : parsed) {
      if ((e.a & 0xFFFFFF0000000000ull) != kTag) continue;
      const uint64_t i = e.a & ~0xFFFFFF0000000000ull;
      ++checked;
      EXPECT_EQ(e.type, FlightEventType::kRpcEnd);
      EXPECT_EQ(e.b, SlotWord(i, 1));
      EXPECT_EQ(e.trace_id, SlotWord(i, 2));
      EXPECT_EQ(e.code, static_cast<uint16_t>(i));
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  std::remove(path.c_str());
  EXPECT_GT(checked, 0u);
}

TEST(SeqlockRingTest, RegistryAdoptsParkedEntriesAndCapsLiveOnes) {
  struct Entry {
    std::atomic<bool> in_use{false};
  };
  using Registry = ThreadRegistry<Entry, 3>;
  static Registry registry;  // static: entries are never freed by design
  Entry* a = registry.Acquire();
  Entry* b = registry.Acquire();
  Entry* c = registry.Acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(registry.Acquire(), nullptr);  // full: every entry is live
  Registry::Park(b);
  EXPECT_EQ(registry.Acquire(), b);  // a later thread adopts the parked entry
  size_t walked = 0;
  registry.ForEach([&walked](Entry& entry) {
    EXPECT_TRUE(entry.in_use.load());
    ++walked;
  });
  EXPECT_EQ(walked, 3u);
}

// --- Tail sampler ---

TailSample MakeSample(double total_s, TailOutcome outcome, bool ok, uint64_t trace_id) {
  TailSample sample;
  sample.trace_id = trace_id;
  sample.rpc_type = 1;
  sample.outcome = outcome;
  sample.ok = ok;
  sample.total_s = total_s;
  sample.stages.Add(RpcStage::kRead, total_s / 2);
  sample.stages.Add(RpcStage::kCompute, total_s / 2);
  return sample;
}

TEST(TailSamplerTest, KeepsSlowShedAndErroredButNotFastSuccesses) {
  TailSampler& sampler = TailSampler::Global();
  sampler.Configure(0.050);
  EXPECT_FALSE(sampler.Offer(MakeSample(0.001, TailOutcome::kSlow, true, 1)));  // fast OK
  EXPECT_TRUE(sampler.Offer(MakeSample(0.200, TailOutcome::kSlow, true, 2)));   // slow OK
  EXPECT_TRUE(sampler.Offer(MakeSample(0.001, TailOutcome::kError, false, 3))); // fast error
  EXPECT_TRUE(sampler.Offer(MakeSample(0.0005, TailOutcome::kShed, false, 4))); // shed
  std::vector<TailSample> kept = sampler.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  for (const TailSample& s : kept) {
    EXPECT_NE(s.trace_id, 1u);
    EXPECT_GT(s.stages.total(), 0.0);  // full stage breakdown retained
  }
  // Threshold <= 0 disables the slowness criterion entirely.
  sampler.Configure(0.0);
  EXPECT_FALSE(sampler.Offer(MakeSample(10.0, TailOutcome::kSlow, true, 5)));
  EXPECT_TRUE(sampler.Offer(MakeSample(0.001, TailOutcome::kError, false, 6)));
  sampler.Configure(0.100);  // restore the default for other tests
}

TEST(TailSamplerTest, TopSlowestSortsAndCapacityEvictsOldest) {
  TailSampler& sampler = TailSampler::Global();
  sampler.Configure(0.001, 4);
  for (int i = 1; i <= 6; ++i) {
    sampler.Offer(MakeSample(0.010 * i, TailOutcome::kSlow, true, 100 + i));
  }
  std::vector<TailSample> kept = sampler.Snapshot();
  ASSERT_EQ(kept.size(), 4u);  // capacity bound: the two oldest evicted
  EXPECT_EQ(kept.front().trace_id, 103u);
  EXPECT_EQ(kept.back().trace_id, 106u);
  std::vector<TailSample> top = sampler.TopSlowest(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].trace_id, 106u);  // slowest first
  EXPECT_EQ(top[1].trace_id, 105u);
  sampler.Configure(0.100);
}

// --- Histogram exemplars ---

TEST(HistogramTest, ExemplarTracksTheSlowestTracedValue) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.exemplar.basic", {0.01, 0.1, 1.0});
  h->Reset();
  h->RecordWithExemplar(0.05, 11);
  h->RecordWithExemplar(0.5, 22);   // new maximum
  h->RecordWithExemplar(0.2, 33);   // slower trace does not displace the max
  h->RecordWithExemplar(2.0, 0);    // traceless: counted, never an exemplar
  Histogram::Snapshot snapshot = h->Scrape();
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_DOUBLE_EQ(snapshot.exemplar_value, 0.5);
  EXPECT_EQ(snapshot.exemplar_trace_id, 22u);
  h->Reset();
  snapshot = h->Scrape();
  EXPECT_EQ(snapshot.exemplar_trace_id, 0u);
  EXPECT_DOUBLE_EQ(snapshot.exemplar_value, 0.0);
}

// --- Prometheus exposition conformance (golden output) ---

// Byte-exact golden rendering: `le` buckets must be cumulative and end with
// a +Inf bucket equal to _count, _sum must match, families must be typed
// exactly once. Guards the exporter against silent format drift.
TEST(ExportTest, PrometheusGoldenOutput) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"net.bytes_sent", 4096}};
  snapshot.gauges = {{"svc.connections_active", 2, 6}};
  Histogram::Snapshot h;
  h.name = "svc.rpc_seconds.Ping";
  h.bounds = {0.001, 0.01};
  h.counts = {3, 2, 1};  // per-bucket: <=0.001, <=0.01, overflow
  h.count = 6;
  h.sum = 0.05;
  snapshot.histograms = {h};
  EXPECT_EQ(MetricsToPrometheus(snapshot),
            "# TYPE indaas_net_bytes_sent counter\n"
            "indaas_net_bytes_sent 4096\n"
            "# TYPE indaas_svc_connections_active gauge\n"
            "indaas_svc_connections_active 2\n"
            "# TYPE indaas_svc_connections_active_max gauge\n"
            "indaas_svc_connections_active_max 6\n"
            "# TYPE indaas_svc_rpc_seconds histogram\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"0.001\"} 3\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"0.01\"} 5\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"+Inf\"} 6\n"
            "indaas_svc_rpc_seconds_sum{rpc=\"Ping\"} 0.05\n"
            "indaas_svc_rpc_seconds_count{rpc=\"Ping\"} 6\n");
}

// The exponential per-RPC and per-stage series scrape as two native labeled
// histogram families: every member shares one # TYPE line (Prometheus
// rejects duplicate types), members keep their own label value, and
// histograms outside the two families stay unlabeled.
TEST(ExportTest, PrometheusGoldenOutputLabeledHistogramFamilies) {
  MetricsSnapshot snapshot;
  Histogram::Snapshot ping;
  ping.name = "svc.rpc_seconds.Ping";
  ping.bounds = {0.001};
  ping.counts = {2, 1};
  ping.count = 3;
  ping.sum = 0.01;
  Histogram::Snapshot read;
  read.name = "svc.stage.read_seconds";
  read.bounds = {0.001};
  read.counts = {4, 0};
  read.count = 4;
  read.sum = 0.002;
  Histogram::Snapshot audit;
  audit.name = "svc.rpc_seconds.RunAudit";
  audit.bounds = {0.001};
  audit.counts = {0, 5};
  audit.count = 5;
  audit.sum = 1.5;
  Histogram::Snapshot other;
  other.name = "sia.rank_seconds";
  other.bounds = {0.001};
  other.counts = {1, 0};
  other.count = 1;
  other.sum = 0.0005;
  snapshot.histograms = {ping, read, audit, other};
  EXPECT_EQ(MetricsToPrometheus(snapshot),
            "# TYPE indaas_svc_rpc_seconds histogram\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"0.001\"} 2\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"Ping\",le=\"+Inf\"} 3\n"
            "indaas_svc_rpc_seconds_sum{rpc=\"Ping\"} 0.01\n"
            "indaas_svc_rpc_seconds_count{rpc=\"Ping\"} 3\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"RunAudit\",le=\"0.001\"} 0\n"
            "indaas_svc_rpc_seconds_bucket{rpc=\"RunAudit\",le=\"+Inf\"} 5\n"
            "indaas_svc_rpc_seconds_sum{rpc=\"RunAudit\"} 1.5\n"
            "indaas_svc_rpc_seconds_count{rpc=\"RunAudit\"} 5\n"
            "# TYPE indaas_svc_stage_seconds histogram\n"
            "indaas_svc_stage_seconds_bucket{stage=\"read\",le=\"0.001\"} 4\n"
            "indaas_svc_stage_seconds_bucket{stage=\"read\",le=\"+Inf\"} 4\n"
            "indaas_svc_stage_seconds_sum{stage=\"read\"} 0.002\n"
            "indaas_svc_stage_seconds_count{stage=\"read\"} 4\n"
            "# TYPE indaas_sia_rank_seconds histogram\n"
            "indaas_sia_rank_seconds_bucket{le=\"0.001\"} 1\n"
            "indaas_sia_rank_seconds_bucket{le=\"+Inf\"} 1\n"
            "indaas_sia_rank_seconds_sum 0.0005\n"
            "indaas_sia_rank_seconds_count 1\n");
}

// The degraded-mode operational surface (partial PIA results, adaptive
// overload control) must round-trip the exporter with these exact series
// names: runbooks and dashboards key on them.
TEST(ExportTest, PrometheusGoldenOutputDegradedModeSeries) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"svc.degraded_audits", 3},
                       {"svc.requests_shed_adaptive", 17}};
  snapshot.gauges = {{"svc.adaptive_shed_level", 4, 9}};
  EXPECT_EQ(MetricsToPrometheus(snapshot),
            "# TYPE indaas_svc_degraded_audits counter\n"
            "indaas_svc_degraded_audits 3\n"
            "# TYPE indaas_svc_requests_shed_adaptive counter\n"
            "indaas_svc_requests_shed_adaptive 17\n"
            "# TYPE indaas_svc_adaptive_shed_level gauge\n"
            "indaas_svc_adaptive_shed_level 4\n"
            "# TYPE indaas_svc_adaptive_shed_level_max gauge\n"
            "indaas_svc_adaptive_shed_level_max 9\n");
}

// --- Sampling profiler ---

// Burns CPU and heap on a registered thread until told to stop, so a
// profile window has something to catch.
class ProfiledWorker {
 public:
  ProfiledWorker()
      : thread_([this] {
          Profiler::Global().RegisterCurrentThread();
          std::vector<std::string> churn;
          uint64_t x = 1;
          while (!stop_.load(std::memory_order_relaxed)) {
            for (int i = 0; i < 50000; ++i) x = x * 6364136223846793005ull + 1;
            churn.emplace_back(4096, static_cast<char>('a' + (x & 15)));
            if (churn.size() > 64) churn.clear();
          }
          sink_.store(x, std::memory_order_relaxed);
        }) {}
  ~ProfiledWorker() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sink_{0};
  std::thread thread_;
};

TEST(ProfilerTest, StartRejectsOutOfRangeOptions) {
  ProfileOptions options;
  options.hz = 0;
  EXPECT_EQ(Profiler::Global().Start(options).code(), StatusCode::kInvalidArgument);
  options.hz = Profiler::kMaxHz + 1;
  EXPECT_EQ(Profiler::Global().Start(options).code(), StatusCode::kInvalidArgument);
  auto window = Profiler::Global().WindowedCapture(99, 0, false);
  EXPECT_FALSE(window.ok());
  window = Profiler::Global().WindowedCapture(99, 61, false);
  EXPECT_FALSE(window.ok());
}

TEST(ProfilerTest, CapturesCpuAndAllocStacksFromRegisteredThreads) {
  const uint64_t samples_before =
      MetricsRegistry::Global().GetCounter("obs.profile.samples")->Value();
  ProfiledWorker worker;
  ProfileOptions options;
  options.hz = 250;
  options.alloc = true;
  options.alloc_interval_bytes = 64 * 1024;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  // A second session must be refused while this one runs.
  EXPECT_EQ(Profiler::Global().Start(options).code(), StatusCode::kUnavailable);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  ProfileData data = Profiler::Global().Stop();

  EXPECT_EQ(data.hz, 250u);
  EXPECT_GT(data.end_us, data.start_us);
  EXPECT_EQ(data.exe_path, ExecutablePath());
  size_t cpu = 0;
  size_t alloc = 0;
  for (const ProfileSample& sample : data.samples) {
    ASSERT_FALSE(sample.frames.empty());
    ASSERT_LE(sample.frames.size(), Profiler::kMaxFrames);
    if (sample.alloc) {
      ++alloc;
      EXPECT_GT(sample.weight, 0u);
    } else {
      ++cpu;
    }
  }
  // ~300 CPU samples and dozens of alloc samples expected; stay lenient for
  // sanitizer builds where wall time outpaces CPU time.
  EXPECT_GE(cpu, 5u) << "no CPU samples from a busy registered thread";
  EXPECT_GE(alloc, 1u) << "no allocation samples despite heap churn";
  EXPECT_GE(MetricsRegistry::Global().GetCounter("obs.profile.samples")->Value(),
            samples_before + cpu + alloc);
  // Stopping twice is a no-op.
  EXPECT_TRUE(Profiler::Global().Stop().samples.empty());
}

TEST(ProfilerTest, WindowedCaptureRunsATemporarySession) {
  ProfiledWorker worker;
  auto window = Profiler::Global().WindowedCapture(250, 1, /*alloc=*/false);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window.value().hz, 250u);
  EXPECT_FALSE(Profiler::Global().running());
  EXPECT_GE(window.value().samples.size(), 1u);
}

TEST(ProfilerTest, ContinuousWindowReportsWindowScopedCounts) {
  // Continuous-mode windows must report drop counts as deltas over the
  // window, not session-cumulative totals: flood the alloc ring far faster
  // than the drainer sweeps, then cut a quiet window and check it does not
  // inherit the flood's losses.
  Profiler::Global().RegisterCurrentThread();
  ProfileOptions options;
  options.hz = 1;  // keep CPU sampling quiet; the flood drives the alloc ring
  options.alloc = true;
  options.alloc_interval_bytes = 1;  // sample every allocation
  options.continuous = true;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  // Direct operator-new calls: a new-expression pair could legally be
  // elided by the optimizer, which would starve the flood.
  for (int i = 0; i < 200000; ++i) {
    ::operator delete(::operator new(32));
  }
  auto window = Profiler::Global().WindowedCapture(99, 1, /*alloc=*/true);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ProfileData total = Profiler::Global().Stop();
  ASSERT_GT(total.dropped, 10000u) << "flood failed to overflow the alloc ring";
  // The window started after the flood was drained into the baseline, so a
  // quiet second carries at most stray test-process allocations.
  EXPECT_LT(window.value().dropped, total.dropped / 10)
      << "window reported session-cumulative drops";
  for (const ProfileSample& sample : window.value().samples) {
    EXPECT_GE(sample.t_us, window.value().start_us);
  }
}

TEST(ProfilerTest, DumpTextRoundTrips) {
  ProfileData data;
  data.hz = 99;
  data.start_us = 1000;
  data.end_us = 2000;
  data.exe_base = 0x555500000000ull;
  data.exe_path = "/bin/indaas";
  data.dropped = 7;
  data.truncated_stacks = 2;
  data.trace_ids = {0xabcULL, 42};
  ProfileSample cpu;
  cpu.t_us = 1100;
  cpu.trace_id = 0xabc;
  cpu.tid = 3;
  cpu.weight = 1;
  cpu.frames = {0x401234, 0x401000, 0x400500};
  ProfileSample alloc;
  alloc.t_us = 1200;
  alloc.tid = 4;
  alloc.weight = 65536;
  alloc.alloc = true;
  alloc.truncated = true;
  alloc.frames = {0x402000};
  data.samples = {cpu, alloc};

  const std::string text = ProfileToDumpText(data);
  ProfileData parsed;
  ASSERT_TRUE(ParseProfileDumpText(text, &parsed));
  EXPECT_EQ(parsed.hz, 99u);
  EXPECT_EQ(parsed.start_us, 1000u);
  EXPECT_EQ(parsed.end_us, 2000u);
  EXPECT_EQ(parsed.exe_base, 0x555500000000ull);
  EXPECT_EQ(parsed.exe_path, "/bin/indaas");
  EXPECT_EQ(parsed.dropped, 7u);
  EXPECT_EQ(parsed.truncated_stacks, 2u);
  EXPECT_EQ(parsed.trace_ids, (std::vector<uint64_t>{0xabc, 42}));
  ASSERT_EQ(parsed.samples.size(), 2u);
  EXPECT_EQ(parsed.samples[0].frames, cpu.frames);
  EXPECT_EQ(parsed.samples[0].trace_id, 0xabcu);
  EXPECT_FALSE(parsed.samples[0].alloc);
  EXPECT_TRUE(parsed.samples[1].alloc);
  EXPECT_TRUE(parsed.samples[1].truncated);
  EXPECT_EQ(parsed.samples[1].weight, 65536u);

  // Hostile input: no header, garbage lines.
  ProfileData bad;
  EXPECT_FALSE(ParseProfileDumpText("cpu 1 2 3 4 0x5\n", &bad));
  EXPECT_FALSE(ParseProfileDumpText("# wrong header\ncpu 1 2 3 4 0x5\n", &bad));
}

TEST(ProfilerTest, CollapsedAndChromeExports) {
  ProfileData data;
  ProfileSample a;
  a.t_us = 10;
  a.tid = 1;
  a.weight = 1;
  a.trace_id = 77;
  a.frames = {0xbbb, 0xaaa};  // leaf first: stack is aaa -> bbb
  ProfileSample b = a;
  b.t_us = 20;
  ProfileSample heap;
  heap.t_us = 30;
  heap.tid = 2;
  heap.weight = 4096;
  heap.alloc = true;
  heap.frames = {0xccc};
  data.samples = {a, b, heap};

  EXPECT_EQ(ProfileToCollapsed(data, /*alloc=*/false), "0xaaa;0xbbb 2\n");
  EXPECT_EQ(ProfileToCollapsed(data, /*alloc=*/true), "0xccc 4096\n");

  const std::string trace = ProfileToChromeTrace(data);
  EXPECT_TRUE(JsonValidator(trace).Valid()) << trace;
  EXPECT_NE(trace.find("\"cat\":\"profile_cpu\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"profile_alloc\""), std::string::npos);
  EXPECT_NE(trace.find("\"trace_id\":\"77\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"0xbbb\""), std::string::npos);
}

TEST(ProfilerTest, SamplesCarryAmbientTraceId) {
  std::atomic<bool> stop{false};
  std::thread traced([&] {
    Profiler::Global().RegisterCurrentThread();
    ScopedTraceContext scoped(TraceContext{0xfeedULL, 0});
    uint64_t x = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 50000; ++i) x = x * 2862933555777941757ull + 3037000493ull;
    }
    if (x == 0) std::abort();  // keep the loop observable
  });
  ProfileOptions options;
  options.hz = 500;
  options.alloc = false;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  ProfileData data = Profiler::Global().Stop();
  stop.store(true, std::memory_order_relaxed);
  traced.join();

  bool tagged = false;
  for (const ProfileSample& sample : data.samples) {
    if (sample.trace_id == 0xfeed) tagged = true;
  }
  EXPECT_TRUE(tagged) << "no sample carried the installed trace id ("
                      << data.samples.size() << " samples)";
  EXPECT_EQ(data.trace_ids.size(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace indaas
