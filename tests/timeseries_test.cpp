// Live-telemetry round trips: the TimeseriesSampler's producer records
// through the obs::analyze consumer (the rvsym-top / `rvsym-report
// timeseries` path), the deterministic-surface diff behind the sampler's
// --jobs parity promise, and Chrome Trace Event well-formedness for the
// SpanCollector export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/json_reader.hpp"
#include "obs/analyze/timeseries.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_events.hpp"

namespace rvsym::obs {
namespace {

using analyze::JsonValue;
using analyze::parseJson;

HeartbeatSnapshot campaignSnapshot() {
  HeartbeatSnapshot s;
  s.elapsed_s = 1.5;
  s.has_paths = true;
  s.paths_done = 40;
  s.paths_completed = 37;
  s.paths_error = 3;
  s.paths_partial = 3;
  s.worklist_depth = 2;
  s.instructions = 40;
  s.has_campaign = true;
  s.mutants_total = 10;
  s.mutants_judged = 6;
  s.mutants_killed = 5;
  s.mutants_survived = 1;
  s.has_solver = true;
  s.solver_solves = 100;
  s.solver_qps = 66.7;
  s.solver_p50_us = 12;
  s.solver_p90_us = 80;
  s.solver_p99_us = 400;
  s.answered_exact = 900;
  s.qcache_hits = 900;
  s.qcache_misses = 100;
  return s;
}

TEST(TimeseriesRoundTrip, SampleJsonParsesBackFieldForField) {
  MetricsRegistry reg;
  reg.counter("engine.paths_committed").add(40);
  const std::string line =
      TimeseriesSampler::sampleJson(campaignSnapshot(), &reg, 7);

  analyze::TimeseriesRun run;
  std::string err;
  ASSERT_TRUE(analyze::parseTimeseriesRecord(line, run, &err)) << err;
  ASSERT_EQ(run.samples.size(), 1u);
  const analyze::TimeseriesSample& s = run.samples[0];
  EXPECT_EQ(s.seq, 7u);
  EXPECT_DOUBLE_EQ(s.t_s, 1.5);
  EXPECT_TRUE(s.has_paths);
  EXPECT_EQ(s.paths_done, 40u);
  EXPECT_EQ(s.paths_completed, 37u);
  EXPECT_EQ(s.paths_errors, 3u);
  EXPECT_EQ(s.worklist, 2u);
  EXPECT_TRUE(s.has_campaign);
  EXPECT_EQ(s.mutants_total, 10u);
  EXPECT_EQ(s.mutants_judged, 6u);
  EXPECT_EQ(s.mutants_killed, 5u);
  EXPECT_TRUE(s.has_solver);
  EXPECT_EQ(s.solver_solves, 100u);
  EXPECT_EQ(s.p99_us, 400u);
  EXPECT_EQ(s.answered_exact, 900u);
  EXPECT_EQ(s.qcache_hits, 900u);
  EXPECT_EQ(s.qcache_misses, 100u);
}

TEST(TimeseriesRoundTrip, FinalJsonSplitsDeterministicFromTiming) {
  const std::string line =
      TimeseriesSampler::finalJson(campaignSnapshot(), "mutate", 1.5, 3);
  std::string err;
  const auto v = parseJson(line, &err);
  ASSERT_TRUE(v) << err;
  // Deterministic progress fields are unprefixed...
  EXPECT_TRUE(v->find("paths"));
  EXPECT_TRUE(v->find("campaign"));
  // ...every timing-dependent field carries the t_/qc_ prefix, nothing
  // else does (the canonicalization contract).
  for (const auto& [key, val] : v->members()) {
    (void)val;
    if (key == "t_s" || key == "t_samples") continue;
    const bool prefixed =
        key.rfind("t_", 0) == 0 || key.rfind("qc_", 0) == 0;
    const bool deterministic = key == "ev" || key == "kind" ||
                               key == "paths" || key == "instr" ||
                               key == "campaign" || key == "work";
    EXPECT_TRUE(prefixed || deterministic) << "unclassified field: " << key;
  }
  EXPECT_TRUE(v->find("qc_answered"));
}

TEST(TimeseriesRoundTrip, SamplerStreamLoadsAndDiffsAsParity) {
  MetricsRegistry reg;
  reg.counter("engine.paths_committed").add(25);
  reg.counter("engine.paths_completed").add(25);
  reg.histogram("solver.check_us").record(50);

  const auto write_stream = [&](const std::string& path,
                                std::uint64_t extra_hits) {
    // Identical deterministic state, different cache traffic — the
    // situation two --jobs values produce.
    reg.counter("qcache.hits").add(extra_hits);
    TimeseriesOptions opts;
    opts.out_path = path;
    opts.interval_s = 0.005;
    opts.kind = "verify";
    opts.total_work = 25;
    TimeseriesSampler sampler(opts, reg);
    std::string err;
    ASSERT_TRUE(sampler.start(&err)) << err;
    while (sampler.samples() < 1) std::this_thread::yield();
    sampler.stop();
  };

  const std::string path_a = ::testing::TempDir() + "ts_parity_a.jsonl";
  const std::string path_b = ::testing::TempDir() + "ts_parity_b.jsonl";
  write_stream(path_a, 10);
  write_stream(path_b, 7);

  std::string err;
  const auto a = analyze::loadTimeseries(path_a, &err);
  ASSERT_TRUE(a) << err;
  const auto b = analyze::loadTimeseries(path_b, &err);
  ASSERT_TRUE(b) << err;
  EXPECT_EQ(a->header.kind, "verify");
  EXPECT_EQ(a->header.total_work, 25u);
  EXPECT_GE(a->samples.size(), 1u);
  ASSERT_TRUE(a->final_record.has_value());
  ASSERT_TRUE(b->final_record.has_value());

  // Different qcache totals, same progress: parity must hold.
  EXPECT_NE(a->final_record->getU64("qc_hits"),
            b->final_record->getU64("qc_hits"));
  EXPECT_EQ(analyze::canonicalFinal(*a->final_record),
            analyze::canonicalFinal(*b->final_record));
  EXPECT_TRUE(analyze::diffTimeseries(*a, *b).empty());

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(TimeseriesInterrupted, StreamWithoutFinalKeepsSamplesAndReportsTornTail) {
  // A producer killed mid-run leaves the header and the samples it
  // flushed, no ts_final, and possibly half of the record it was
  // writing.
  MetricsRegistry reg;
  reg.counter("engine.paths_committed").add(12);
  std::string body =
      "{\"ev\":\"ts_header\",\"schema\":\"rvsym-timeseries-v1\","
      "\"version\":1,\"kind\":\"mutate\",\"interval_s\":0.5,"
      "\"total_work\":10}\n";
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    HeartbeatSnapshot s = campaignSnapshot();
    s.elapsed_s = 0.5 * static_cast<double>(seq + 1);
    body += TimeseriesSampler::sampleJson(s, &reg, seq) + "\n";
  }
  const std::string torn_record =
      TimeseriesSampler::sampleJson(campaignSnapshot(), &reg, 3);

  const std::string closed_path =
      ::testing::TempDir() + "ts_interrupted.jsonl";
  const std::string torn_path = ::testing::TempDir() + "ts_torn.jsonl";
  const auto write = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
  };
  write(closed_path, body);
  write(torn_path, body + torn_record.substr(0, torn_record.size() / 2));

  std::string err;
  const auto whole = analyze::loadTimeseries(closed_path, &err);
  ASSERT_TRUE(whole) << err;
  EXPECT_EQ(whole->header.kind, "mutate");
  EXPECT_EQ(whole->samples.size(), 3u);
  EXPECT_FALSE(whole->final_record.has_value());
  EXPECT_FALSE(whole->scan.torn_tail);
  const std::string whole_summary = analyze::renderTimeseriesSummary(*whole);
  EXPECT_NE(whole_summary.find("stream not closed — interrupted run?"),
            std::string::npos)
      << whole_summary;
  EXPECT_EQ(whole_summary.find("torn mid-write"), std::string::npos);

  const auto torn = analyze::loadTimeseries(torn_path, &err);
  ASSERT_TRUE(torn) << err;
  EXPECT_EQ(torn->samples.size(), 3u);
  EXPECT_FALSE(torn->final_record.has_value());
  EXPECT_TRUE(torn->scan.torn_tail);
  const std::string torn_summary = analyze::renderTimeseriesSummary(*torn);
  EXPECT_NE(torn_summary.find("stream not closed — interrupted run?"),
            std::string::npos)
      << torn_summary;
  EXPECT_NE(torn_summary.find("WARNING: final line torn mid-write"),
            std::string::npos)
      << torn_summary;

  std::remove(closed_path.c_str());
  std::remove(torn_path.c_str());
}

TEST(TimeseriesDiff, FlagsDeterministicDivergence) {
  const auto run_with = [](std::uint64_t done) {
    HeartbeatSnapshot s;
    s.has_paths = true;
    s.paths_done = done;
    s.paths_completed = done;
    analyze::TimeseriesRun run;
    EXPECT_TRUE(analyze::parseTimeseriesRecord(
        "{\"ev\":\"ts_header\",\"schema\":\"rvsym-timeseries-v1\","
        "\"version\":1,\"kind\":\"verify\",\"interval_s\":0.5,"
        "\"total_work\":0}",
        run));
    EXPECT_TRUE(analyze::parseTimeseriesRecord(
        TimeseriesSampler::finalJson(s, "verify", 9.0, 18), run));
    return run;
  };
  const analyze::TimeseriesRun a = run_with(40);
  const analyze::TimeseriesRun b = run_with(41);
  EXPECT_TRUE(analyze::diffTimeseries(a, a).empty());
  EXPECT_FALSE(analyze::diffTimeseries(a, b).empty());
}

TEST(TimeseriesStatus, StatusObjectParsesAsSingleSample) {
  MetricsRegistry reg;
  reg.counter("engine.paths_committed").add(3);
  const std::string status = ::testing::TempDir() + "ts_status_test.json";
  TimeseriesOptions opts;
  opts.status_path = status;
  opts.interval_s = 0.005;
  opts.kind = "verify";
  TimeseriesSampler sampler(opts, reg);
  std::string err;
  ASSERT_TRUE(sampler.start(&err)) << err;
  while (sampler.samples() < 1) std::this_thread::yield();
  sampler.stop();

  std::ifstream in(status);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // No .tmp file left behind by the atomic rewrite.
  EXPECT_FALSE(std::ifstream(status + ".tmp").good());
  analyze::TimeseriesRun run;
  ASSERT_TRUE(analyze::parseTimeseriesRecord(text, run, &err)) << err;
  EXPECT_EQ(run.header.kind, "verify");
  ASSERT_EQ(run.samples.size(), 1u);
  EXPECT_EQ(run.samples[0].paths_done, 3u);
  std::remove(status.c_str());
}

// --- Chrome Trace Event export --------------------------------------------

TEST(ChromeTrace, DocumentIsWellFormedWithMonotonicTracks) {
  SpanCollector spans;
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&spans, t] {
      for (int i = 0; i < 50; ++i)
        spans.addEnding("q" + std::to_string(t), "solver", 3,
                        {{"disposition", "\"solve\""},
                         {"expr_nodes", std::to_string(i)}});
    });
  }
  for (std::thread& t : producers) t.join();

  const std::string doc = spans.toChromeTrace();
  std::string err;
  const auto v = parseJson(doc, &err);
  ASSERT_TRUE(v) << err;

  const JsonValue* events = v->find("traceEvents");
  ASSERT_TRUE(events && events->isArray());
  std::map<std::uint64_t, std::uint64_t> last_ts;   // tid -> last ts
  std::map<std::uint64_t, bool> named;              // tid -> metadata seen
  std::size_t complete_events = 0;
  for (const JsonValue& ev : events->items()) {
    const auto ph = ev.getString("ph");
    ASSERT_TRUE(ph);
    const std::uint64_t tid = ev.getU64("tid").value_or(~0ull);
    if (*ph == "M") {
      EXPECT_EQ(ev.getString("name").value_or(""), "thread_name");
      named[tid] = true;
      continue;
    }
    ASSERT_EQ(*ph, "X");
    ++complete_events;
    // Every track is named before its first complete event and its
    // timestamps never go backwards (the chrome://tracing contract).
    EXPECT_TRUE(named[tid]) << "unnamed track " << tid;
    const std::uint64_t ts = ev.getU64("ts").value_or(0);
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) EXPECT_GE(ts, it->second);
    last_ts[tid] = ts;
    EXPECT_EQ(ev.getString("cat").value_or(""), "solver");
    const JsonValue* args = ev.find("args");
    ASSERT_TRUE(args);
    EXPECT_EQ(args->getString("disposition").value_or(""), "solve");
  }
  EXPECT_EQ(complete_events, 150u);
  EXPECT_EQ(last_ts.size(), 3u);
  EXPECT_EQ(v->getString("displayTimeUnit").value_or(""), "ms");
}

TEST(ChromeTrace, WriteToFileRoundTrips) {
  SpanCollector spans;
  spans.addEnding("decode", "phase", 12);
  const std::string path = ::testing::TempDir() + "trace_events_test.json";
  ASSERT_TRUE(spans.writeChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string err;
  const auto v = parseJson(text, &err);
  ASSERT_TRUE(v) << err;
  const JsonValue* other = v->find("otherData");
  ASSERT_TRUE(other);
  EXPECT_EQ(other->getString("producer").value_or(""), "rvsym");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rvsym::obs
