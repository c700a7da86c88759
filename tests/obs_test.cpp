// Tests for the observability subsystem: the shared JSON serializer,
// the thread-safe metrics registry, histogram bucketing, the JSONL
// trace sinks, and the engine-level trace determinism contract
// (jobs=1 and jobs=4 produce identical traces once the documented
// wall-clock/query-cache fields are stripped).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expr/builder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "symex/engine.hpp"
#include "symex/state.hpp"

namespace rvsym::obs {
namespace {

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape(std::string("a\nb\tc\x01")), "a\\nb\\tc\\u0001");
}

TEST(JsonWriter, NestedStructure) {
  JsonWriter w;
  w.beginObject();
  w.field("name", "he said \"hi\"");
  w.field("n", std::uint64_t{42});
  w.field("neg", std::int64_t{-7});
  w.field("flag", true);
  w.key("arr").beginArray();
  w.value(1u);
  w.value("two");
  w.nullValue();
  w.endArray();
  w.key("nested").rawValue("{\"x\":1}");
  w.endObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"he said \\\"hi\\\"\",\"n\":42,\"neg\":-7,"
            "\"flag\":true,\"arr\":[1,\"two\",null],\"nested\":{\"x\":1}}");
}

TEST(JsonWriter, NonFiniteDoublesDegradeToNull) {
  JsonWriter w;
  w.beginArray();
  w.value(1.5);
  w.value(std::nan(""));
  w.value(HUGE_VAL);
  w.value(-HUGE_VAL);
  w.endArray();
  EXPECT_EQ(w.str(), "[1.5,null,null,null]");
}

TEST(JsonWriter, Utf8PassesThroughUnmangled) {
  // Multi-byte UTF-8 is legal inside JSON strings and must survive
  // byte-for-byte: escaping applies to ", \ and control characters only.
  const std::string utf8 = "caf\xC3\xA9 \xE2\x86\x92 \xF0\x9F\x98\x80";
  EXPECT_EQ(jsonEscape(utf8), utf8);
  JsonWriter w;
  w.beginObject();
  w.field("s", utf8);
  w.endObject();
  EXPECT_EQ(w.str(), "{\"s\":\"" + utf8 + "\"}");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // All of 0x00-0x1F must render as an escape; the named short forms
  // for the common ones, \u00XX for the rest.
  EXPECT_EQ(jsonEscape(std::string("\x00", 1)), "\\u0000");
  EXPECT_EQ(jsonEscape("\b"), "\\b");
  EXPECT_EQ(jsonEscape("\f"), "\\f");
  EXPECT_EQ(jsonEscape("\r"), "\\r");
  EXPECT_EQ(jsonEscape("\x1F"), "\\u001f");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = jsonEscape(std::string(1, static_cast<char>(c)));
    EXPECT_GE(escaped.size(), 2u) << "control char " << c << " not escaped";
    EXPECT_EQ(escaped[0], '\\');
  }
  // DEL (0x7F) and high bytes are not control characters in JSON terms.
  EXPECT_EQ(jsonEscape("\x7F"), "\x7F");
}

// --- Histogram ------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket i covers [2^i, 2^(i+1)); bucket 0 also takes 0.
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 0u);
  EXPECT_EQ(Histogram::bucketFor(2), 1u);
  EXPECT_EQ(Histogram::bucketFor(3), 1u);
  EXPECT_EQ(Histogram::bucketFor(4), 2u);
  EXPECT_EQ(Histogram::bucketFor(1023), 9u);
  EXPECT_EQ(Histogram::bucketFor(1024), 10u);
  // Everything at or above 2^24 us lands in the overflow bucket.
  EXPECT_EQ(Histogram::bucketFor(1ull << 24), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucketFor(~0ull), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0ull);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 2ull);
  EXPECT_EQ(Histogram::bucketLowerBound(10), 1024ull);
}

TEST(Histogram, RecordAggregates) {
  Histogram h;
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(1 << 20);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sumMicros(), 0u + 3 + 3 + (1 << 20));
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(20), 1u);
  h.recordSeconds(0.000002);  // 2us -> bucket 1
  EXPECT_EQ(h.bucket(1), 3u);
}

TEST(Gauge, TracksMax) {
  Gauge g;
  g.set(5);
  g.sampleMax(5);
  g.set(2);
  g.sampleMax(2);
  EXPECT_EQ(g.get(), 2);
  EXPECT_EQ(g.max(), 5);
}

TEST(ScopedTimer, NullHistogramIsNoop) {
  ScopedTimer t(nullptr);  // must not crash or read the clock
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, StableHandles) {
  MetricsRegistry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&r.counter("y"), &a);
}

TEST(MetricsRegistry, ConcurrentRecording) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      // Same names from every thread: exercises both the registry map
      // (mutex) and the instruments (lock-free atomics).
      Counter& c = r.counter("shared.counter");
      Histogram& h = r.histogram("shared.hist");
      Gauge& g = r.gauge("shared.gauge");
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(i % 7));
        g.sampleMax(t * kIters + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(r.counter("shared.counter").get(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(r.histogram("shared.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(r.gauge("shared.gauge").max(),
            static_cast<std::int64_t>(kThreads) * kIters - 1);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  MetricsRegistry r;
  r.counter("c.one").add(3);
  r.gauge("g.depth").set(4);
  r.gauge("g.depth").sampleMax(9);
  r.histogram("h.lat").record(5);
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.depth\":{\"value\":4,\"max\":9}"),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"h.lat\":{\"count\":1,\"sum_us\":5"),
            std::string::npos) << json;
  // Zero buckets are elided: exactly one bucket entry for the sample.
  EXPECT_NE(json.find("\"buckets\":[{\"ge_us\":4,\"n\":1}]"),
            std::string::npos) << json;
}

// --- Trace events and sinks -----------------------------------------------

TEST(Trace, EventRendersJsonl) {
  TraceEvent ev("path_end");
  ev.num("path", std::uint64_t{7})
      .str("end", "error")
      .boolean("has_test", true)
      .str("msg", "quote \" and newline\n");
  EXPECT_EQ(ev.toJsonl(),
            "{\"ev\":\"path_end\",\"path\":7,\"end\":\"error\","
            "\"has_test\":true,\"msg\":\"quote \\\" and newline\\n\"}");
}

TEST(Trace, BufferSinkCollectsLines) {
  BufferTraceSink sink;
  sink.emit(TraceEvent("a").num("x", std::uint64_t{1}));
  sink.emit(TraceEvent("b").str("y", "z"));
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.lines()[0], "{\"ev\":\"a\",\"x\":1}");
  EXPECT_EQ(sink.joined(), "{\"ev\":\"a\",\"x\":1}\n{\"ev\":\"b\",\"y\":\"z\"}\n");
}

TEST(Trace, JsonlSinkRoundTripsThroughFile) {
  const std::string path = testing::TempDir() + "/obs_trace_test.jsonl";
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.emit(TraceEvent("run_start").num("jobs", std::uint64_t{1}));
    sink.emit(TraceEvent("run_end").num("paths", std::uint64_t{3}));
    sink.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string l1, l2;
  ASSERT_TRUE(std::getline(in, l1));
  ASSERT_TRUE(std::getline(in, l2));
  EXPECT_EQ(l1, "{\"ev\":\"run_start\",\"jobs\":1}");
  EXPECT_EQ(l2, "{\"ev\":\"run_end\",\"paths\":3}");
  std::remove(path.c_str());
}

TEST(Trace, MacroSkipsEventConstructionOnNullSink) {
  int evaluations = 0;
  const auto make = [&evaluations] {
    ++evaluations;
    return TraceEvent("x");
  };
  TraceSink* null_sink = nullptr;
  RVSYM_TRACE(null_sink, make());
  EXPECT_EQ(evaluations, 0);
  BufferTraceSink buf;
  RVSYM_TRACE(&buf, make());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(buf.lines().size(), 1u);
}

// --- Engine trace determinism ---------------------------------------------

// A branching program with completed, error and infeasible endings (the
// same shape the parallel-engine parity tests use), including a message
// that needs JSON escaping.
void traceProgram(symex::ExecState& st) {
  expr::ExprBuilder& eb = st.builder();
  const expr::ExprRef x = st.makeSymbolic("x", 8);
  st.assume(eb.notOp(eb.eqConst(x, 0xFF)));
  unsigned v = 0;
  for (unsigned i = 0; i < 4; ++i) {
    st.countInstruction();
    if (st.branch(eb.bit(x, i))) v |= 1u << i;
  }
  if (v == 0b0101) st.fail("bad \"pattern\" 0101");
  if (v >= 12) {
    const expr::ExprRef y = st.makeSymbolic("y", 8);
    st.countInstruction(2);
    if (st.branch(eb.ult(y, eb.constant(16, 8))))
      st.assume(eb.bit(y, 7));  // contradicts y < 16 -> Infeasible
  }
}

std::string runTraced(unsigned jobs) {
  BufferTraceSink sink;
  symex::EngineOptions opts;
  opts.jobs = jobs;
  opts.stop_on_error = false;
  opts.trace = &sink;
  symex::Engine engine(opts);
  engine.run([](symex::WorkerContext&) { return traceProgram; });
  return sink.joined();
}

/// Strips the documented timing-dependent fields: "t_*" (wall clock),
/// "qc_*" (query-cache traffic) and the run_start jobs count — the only
/// parts of a trace allowed to differ across worker counts.
std::string stripTimingFields(const std::string& trace) {
  static const std::regex timing(
      R"re(,"(t_|qc_)[A-Za-z0-9_]*":[0-9.eE+-]+|,"jobs":[0-9]+)re");
  return std::regex_replace(trace, timing, "");
}

TEST(TraceDeterminism, RepeatedRunsAreByteIdentical) {
  const std::string a = stripTimingFields(runTraced(1));
  const std::string b = stripTimingFields(runTraced(1));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ev\":\"run_start\""), std::string::npos);
  EXPECT_NE(a.find("\"ev\":\"fork\""), std::string::npos);
  EXPECT_NE(a.find("bad \\\"pattern\\\" 0101"), std::string::npos);
}

TEST(TraceDeterminism, Jobs1AndJobs4Match) {
  const std::string seq = stripTimingFields(runTraced(1));
  const std::string par = stripTimingFields(runTraced(4));
  EXPECT_EQ(seq, par);
}

TEST(TraceDeterminism, ForkTreeReconstructs) {
  // Every fork line must name an already-scheduled parent, and every
  // scheduled path id must have been introduced by a fork (or be the
  // root 0) — the invariants a post-mortem tree builder relies on.
  const std::string trace = runTraced(4);
  std::istringstream in(trace);
  std::string line;
  std::set<std::uint64_t> known{0};
  const std::regex fork_re(R"re("ev":"fork","path":(\d+),"parent":(\d+))re");
  const std::regex sched_re(R"re("ev":"schedule","path":(\d+))re");
  std::smatch m;
  while (std::getline(in, line)) {
    if (std::regex_search(line, m, fork_re)) {
      EXPECT_TRUE(known.count(std::stoull(m[2]))) << line;
      EXPECT_TRUE(known.insert(std::stoull(m[1])).second) << line;
    } else if (std::regex_search(line, m, sched_re)) {
      EXPECT_TRUE(known.count(std::stoull(m[1]))) << line;
    }
  }
  EXPECT_GT(known.size(), 1u);
}

TEST(EngineMetrics, RegistrySeesSolverAndCommitActivity) {
  MetricsRegistry registry;
  symex::EngineOptions opts;
  opts.jobs = 2;
  opts.stop_on_error = false;
  opts.metrics = &registry;
  symex::Engine engine(opts);
  const symex::EngineReport report =
      engine.run([](symex::WorkerContext&) { return traceProgram; });

  EXPECT_EQ(registry.counter("engine.paths_committed").get(),
            report.totalPaths() - report.unexplored_forks);
  EXPECT_GT(registry.histogram("solver.check_us").count(), 0u);
  EXPECT_GE(registry.gauge("engine.worklist_depth").max(), 1);
  // The qcache satellite: registry counters mirror the report's cache
  // traffic (both are timing-dependent totals, but they must agree with
  // each other within one run).
  EXPECT_EQ(registry.counter("qcache.hits").get(), report.qcache_hits);
  EXPECT_EQ(registry.counter("qcache.misses").get(), report.qcache_misses);
}

TEST(EngineReportJson, SharedSerializerShape) {
  symex::EngineReport report;
  report.completed_paths = 3;
  report.error_paths = 1;
  report.seconds = 0.25;
  report.qcache_hits = 7;
  const std::string json = symex::reportToJson(report);
  EXPECT_NE(json.find("\"completed_paths\":3"), std::string::npos);
  EXPECT_NE(json.find("\"error_paths\":1"), std::string::npos);
  // Timing-dependent fields live in their own sub-object.
  EXPECT_NE(json.find("\"timing\":{\"seconds\":0.25,\"qcache_hits\":7,"
                      "\"qcache_misses\":0}"),
            std::string::npos) << json;
}

// --- Histogram quantile edge cases ----------------------------------------

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantileMicros(0.5), 0u);
  EXPECT_EQ(h.quantileMicros(0.99), 0u);
  EXPECT_EQ(h.quantileLowerBound(0.5), 0u);
}

TEST(HistogramQuantile, SingleSampleIsExact) {
  // One sample puts everything in one bucket, so the mean (= the
  // sample) is returned — not the bucket's power-of-2 lower bound.
  Histogram h;
  h.record(100);
  EXPECT_EQ(h.quantileMicros(0.0), 100u);
  EXPECT_EQ(h.quantileMicros(0.5), 100u);
  EXPECT_EQ(h.quantileMicros(1.0), 100u);
}

TEST(HistogramQuantile, AllSamplesInOneBucketUseMean) {
  // 70/80/90 all land in bucket [64, 128); every quantile is the mean.
  Histogram h;
  h.record(70);
  h.record(80);
  h.record(90);
  EXPECT_EQ(h.quantileMicros(0.5), 80u);
  EXPECT_EQ(h.quantileMicros(0.99), 80u);
}

TEST(HistogramQuantile, InterpolatesWithinSpanningBuckets) {
  // One sample in bucket [0,2), one in [512,1024): the midpoint
  // convention places a bucket's only sample at its center.
  Histogram h;
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.quantileMicros(0.5), 1u);    // rank 1: 0 + 0.5 * 2
  EXPECT_EQ(h.quantileMicros(0.99), 768u); // rank 2: 512 + 0.5 * 512
  // q clamps to [first, last] sample rank.
  EXPECT_EQ(h.quantileMicros(0.0), h.quantileMicros(0.5));
  EXPECT_EQ(h.quantileMicros(1.0), h.quantileMicros(0.99));
}

TEST(HistogramQuantile, OverflowBucketDegradesToLowerBound) {
  // The open-ended overflow bucket has no upper bound to interpolate
  // toward; quantiles landing there pin to its lower bound.
  Histogram h;
  h.record(1);
  h.record((1ull << 24) + 5);
  h.record((1ull << 25) + 5);
  EXPECT_EQ(h.quantileMicros(0.99), 1ull << 24);
}

TEST(MetricsRegistry, SummaryJsonShape) {
  MetricsRegistry r;
  r.counter("c.one").add(3);
  r.gauge("g.depth").sampleMax(9);
  r.histogram("h.lat").record(100);
  r.histogram("h.empty");  // count == 0: percentile fields elided
  const std::string json = r.toSummaryJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h.lat\":{\"count\":1,\"sum_us\":100,\"p50_us\":100,"
                      "\"p90_us\":100,\"p99_us\":100}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h.empty\":{\"count\":0,\"sum_us\":0}"),
            std::string::npos)
      << json;
}

// --- Live telemetry concurrency (race-checked via the obs_tsan entry) -----

TEST(TimeseriesSampler, SamplesConcurrentlyWithRegistryWriters) {
  const std::string stream = ::testing::TempDir() + "obs_ts_stream.jsonl";
  const std::string status = ::testing::TempDir() + "obs_ts_status.json";
  std::remove(stream.c_str());
  std::remove(status.c_str());

  MetricsRegistry r;
  TimeseriesOptions opts;
  opts.out_path = stream;
  opts.status_path = status;
  opts.interval_s = 0.002;
  opts.kind = "verify";
  opts.total_work = 1000;
  TimeseriesSampler sampler(opts, r);
  std::string err;
  ASSERT_TRUE(sampler.start(&err)) << err;

  // Writers hammer the exact instruments the sampler snapshots while it
  // runs flat out — the race surface the TSan aggregate entry checks.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&r] {
      for (int i = 0; i < 5000; ++i) {
        r.counter("engine.paths_committed").add();
        r.histogram("solver.check_us").record(
            static_cast<std::uint64_t>(i % 200));
        r.gauge("engine.worklist_depth").sampleMax(i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  while (sampler.samples() < 2) std::this_thread::yield();
  sampler.stop();
  EXPECT_GE(sampler.samples(), 2u);

  std::ifstream in(stream);
  ASSERT_TRUE(in.good());
  std::string line, last;
  std::getline(in, line);
  EXPECT_NE(line.find("\"ev\":\"ts_header\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"schema\":\"rvsym-timeseries-v1\""),
            std::string::npos);
  while (std::getline(in, line))
    if (!line.empty()) last = line;
  EXPECT_NE(last.find("\"ev\":\"ts_final\""), std::string::npos) << last;
  // The final counter totals are deterministic (commit-order counters),
  // so they sit in the parity-diffed section, by exact value.
  EXPECT_NE(last.find("\"done\":20000"), std::string::npos) << last;

  std::ifstream st(status);
  ASSERT_TRUE(st.good());
  std::string status_text((std::istreambuf_iterator<char>(st)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(status_text.find("\"ev\":\"status\""), std::string::npos);
  std::remove(stream.c_str());
  std::remove(status.c_str());
}

TEST(SpanCollector, ConcurrentProducersGetDistinctTracks) {
  SpanCollector spans;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&spans] {
      for (int i = 0; i < kSpansPerThread; ++i)
        spans.addEnding("work", "phase", 5,
                        {{"i", std::to_string(i)}});
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(spans.dropped(), 0u);

  std::set<std::uint32_t> tracks;
  std::uint64_t last_ts = 0;
  std::uint32_t last_tid = ~0u;
  for (const Span& s : spans.sorted()) {
    tracks.insert(s.tid);
    if (s.tid == last_tid) EXPECT_GE(s.ts_us, last_ts);
    last_tid = s.tid;
    last_ts = s.ts_us;
  }
  EXPECT_EQ(tracks.size(), static_cast<std::size_t>(kThreads));
}

TEST(SpanCollector, DropsPastCapInsteadOfGrowing) {
  SpanCollector spans(/*max_spans=*/10);
  for (int i = 0; i < 25; ++i) spans.addEnding("s", "solver", 1);
  EXPECT_EQ(spans.size(), 10u);
  EXPECT_EQ(spans.dropped(), 15u);
  const std::string doc = spans.toChromeTrace();
  EXPECT_NE(doc.find("\"dropped_spans\":15"), std::string::npos) << doc;
}

}  // namespace
}  // namespace rvsym::obs
