// Fleet observability plane tests (DESIGN.md §13): histogram bucket
// merge vs pooled-sample quantiles, registry snapshot round-trips, the
// FleetAggregator merge semantics, Prometheus exposition edge cases
// (label escaping, +Inf/_sum/_count consistency, byte-stable repeat
// renders), the runs.rvhx history store with its two-case tail repair,
// baseline-driven regression flagging, and the cross-process Chrome-
// trace merge (pid remapping, epoch-aligned timestamps, preserved span
// containment).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/exposition.hpp"
#include "obs/fleet/history.hpp"
#include "obs/fleet/trace_merge.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fs = std::filesystem;
using namespace rvsym::obs;
using namespace rvsym::obs::fleet;

namespace {

std::string makeTempDir() {
  char tmpl[] = "/tmp/rvsym_fleet_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

struct TempDir {
  std::string path = makeTempDir();
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out << text;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

// --- Histogram merge ----------------------------------------------------------------------

// The satellite acceptance check: two histograms filled from disjoint
// sample sets, merged bucket-wise, must report the same quantiles as
// one histogram that saw the pooled samples — to the bucket (the merge
// is exact at bucket resolution, so equality is exact, not "within").
TEST(HistogramMerge, MergedQuantilesMatchPooledSamples) {
  Histogram a, b, pooled;
  std::mt19937 rng(7);
  // Two deliberately different shapes: a is fast (1-64us), b is a
  // heavy tail (1ms-1s), so neither alone predicts the pooled mix.
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t us = 1 + rng() % 64;
    a.record(us);
    pooled.record(us);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t us = 1000 + rng() % 1000000;
    b.record(us);
    pooled.record(us);
  }
  Histogram merged;
  merged.merge(a);
  merged.merge(b);

  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.sumMicros(), pooled.sumMicros());
  for (unsigned i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(merged.bucket(i), pooled.bucket(i)) << "bucket " << i;
  for (const double q : {0.5, 0.9, 0.99})
    EXPECT_EQ(merged.quantileMicros(q), pooled.quantileMicros(q)) << q;
}

TEST(HistogramMerge, AddRawClampsOverflowBucket) {
  Histogram h;
  h.addRaw(Histogram::kBuckets + 5, 3, 300);  // clamps into the last bucket
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sumMicros(), 300u);
}

// --- Snapshot round-trip ------------------------------------------------------------------

TEST(RegistrySnapshot, RoundTripsThroughToJson) {
  MetricsRegistry reg;
  reg.counter("solver.queries").add(42);
  reg.gauge("engine.worklist").set(17);
  reg.gauge("engine.worklist").sampleMax(17);
  reg.gauge("engine.worklist").set(5);  // sampled max stays 17
  reg.histogram("solver.check_us").record(3);
  reg.histogram("solver.check_us").record(900);

  const RegistrySnapshot snap = RegistrySnapshot::of(reg);
  ASSERT_EQ(snap.counters.count("solver.queries"), 1u);
  EXPECT_EQ(snap.counters.at("solver.queries"), 42u);
  ASSERT_EQ(snap.gauges.count("engine.worklist"), 1u);
  EXPECT_EQ(snap.gauges.at("engine.worklist").value, 5);
  EXPECT_EQ(snap.gauges.at("engine.worklist").max, 17);
  ASSERT_EQ(snap.histograms.count("solver.check_us"), 1u);
  const HistogramSnapshot& h = snap.histograms.at("solver.check_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum_us, 903u);
  // Bucket placement survives the ge_us wire encoding.
  const auto live = toHistogram(h);
  EXPECT_EQ(live->count(), 2u);
  EXPECT_EQ(live->sumMicros(), 903u);
  EXPECT_EQ(live->bucket(Histogram::bucketFor(3)), 1u);
  EXPECT_EQ(live->bucket(Histogram::bucketFor(900)), 1u);
}

TEST(RegistrySnapshot, RejectsNonObjectAndSkipsMalformed) {
  EXPECT_FALSE(RegistrySnapshot::fromJsonText("[1,2]").has_value());
  EXPECT_FALSE(RegistrySnapshot::fromJsonText("not json").has_value());
  const auto snap = RegistrySnapshot::fromJsonText(
      R"({"counters":{"ok":1,"bad":"x"},"gauges":{"g":{"value":2}}})");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->counters.count("ok"), 1u);
  EXPECT_EQ(snap->counters.count("bad"), 0u);
  EXPECT_EQ(snap->gauges.at("g").value, 2);
}

// --- Aggregator ---------------------------------------------------------------------------

TEST(FleetAggregator, CountersSumGaugesLastWriteHistogramsMerge) {
  MetricsRegistry w0, w1;
  w0.counter("serve.units").add(3);
  w1.counter("serve.units").add(5);
  w0.gauge("engine.worklist").set(10);
  w0.gauge("engine.worklist").sampleMax(10);
  w1.gauge("engine.worklist").set(7);
  w1.gauge("engine.worklist").sampleMax(7);
  w0.histogram("solver.check_us").record(2);
  w1.histogram("solver.check_us").record(2000);

  FleetAggregator agg;
  agg.update("w0", RegistrySnapshot::of(w0));
  agg.update("w1", RegistrySnapshot::of(w1));
  // A later report from the same worker replaces, never double-counts.
  w0.counter("serve.units").add(1);
  agg.update("w0", RegistrySnapshot::of(w0));

  const RegistrySnapshot m = agg.merged();
  EXPECT_EQ(m.counters.at("serve.units"), 9u);  // 4 + 5, not 3+4+5
  EXPECT_EQ(m.gauges.at("engine.worklist").value, 17);
  EXPECT_EQ(m.gauges.at("engine.worklist").max, 10);
  const HistogramSnapshot& h = m.histograms.at("solver.check_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum_us, 2002u);
  EXPECT_EQ(h.buckets[Histogram::bucketFor(2)], 1u);
  EXPECT_EQ(h.buckets[Histogram::bucketFor(2000)], 1u);
}

// --- Exposition ---------------------------------------------------------------------------

TEST(Exposition, EscapesLabelBytes) {
  EXPECT_EQ(promEscapeLabel("plain"), "plain");
  EXPECT_EQ(promEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(promEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabel("a\nb"), "a\\nb");

  ExpositionInput in;
  in.jobs.push_back({"j\"0\n", "mu\\tate", "done", 1, 1});
  const std::string text = renderExposition(in);
  EXPECT_NE(text.find("job=\"j\\\"0\\n\""), std::string::npos);
  EXPECT_NE(text.find("kind=\"mu\\\\tate\""), std::string::npos);
}

TEST(Exposition, MetricNameManglesToPrometheusCharset) {
  EXPECT_EQ(promMetricName("solver.check_us"), "rvsym_solver_check_us");
  EXPECT_EQ(promMetricName("a-b c"), "rvsym_a_b_c");
}

TEST(Exposition, HistogramBucketsAreCumulativeAndConsistent) {
  MetricsRegistry reg;
  reg.histogram("solver.check_us").record(1);
  reg.histogram("solver.check_us").record(3);
  reg.histogram("solver.check_us").record(1000000);

  ExpositionInput in;
  in.fleet = RegistrySnapshot::of(reg);
  const std::string text = renderExposition(in);

  // +Inf must equal _count, and the finite buckets must be monotone
  // non-decreasing up to it.
  EXPECT_NE(text.find("rvsym_solver_check_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rvsym_solver_check_us_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("rvsym_solver_check_us_sum 1000004\n"),
            std::string::npos);

  std::uint64_t prev = 0;
  std::size_t buckets_seen = 0;
  std::size_t pos = 0;
  const std::string needle = "rvsym_solver_check_us_bucket{le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    if (text.compare(pos, 4, "+Inf") == 0) break;
    const std::size_t sp = text.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t cum =
        std::strtoull(text.c_str() + sp + 2, nullptr, 10);
    EXPECT_GE(cum, prev);
    prev = cum;
    ++buckets_seen;
  }
  EXPECT_EQ(buckets_seen, static_cast<std::size_t>(Histogram::kBuckets - 1));
  EXPECT_LE(prev, 3u);
}

TEST(Exposition, RepeatRendersAreByteIdentical) {
  MetricsRegistry w0;
  w0.counter("serve.units").add(2);
  w0.gauge("engine.worklist").set(4);
  w0.histogram("solver.check_us").record(17);

  ExpositionInput in;
  in.workers["w0"] = RegistrySnapshot::of(w0);
  FleetAggregator agg;
  agg.update("w0", in.workers["w0"]);
  in.fleet = agg.merged();
  in.jobs.push_back({"j0", "mutate", "running", 1, 2});

  EXPECT_EQ(renderExposition(in), renderExposition(in));
}

// --- Run history --------------------------------------------------------------------------

namespace {

RunRecord sampleRun(const std::string& job, std::uint64_t units,
                    double wall_s) {
  RunRecord r;
  r.job = job;
  r.kind = "mutate";
  r.scenario = "rv32i";
  r.solver_opt = "all";
  r.status = "done";
  r.units_total = units;
  r.units_done = units;
  r.verdicts["killed"] = units;
  r.solver_checks = 10 * units;
  r.wall_s = wall_s;
  r.env_json = runEnvJson();
  return r;
}

}  // namespace

TEST(RunHistory, AppendAndLoadRoundTrip) {
  TempDir dir;
  const std::string path = dir.path + "/runs.rvhx";
  {
    RunHistory store(path);
    ASSERT_TRUE(store.append(sampleRun("j0", 2, 0.25)));
    ASSERT_TRUE(store.append(sampleRun("j1", 1, 0.5)));
  }
  RunHistory store(path);
  std::vector<std::string> warnings;
  const auto runs = store.loadAll(&warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].job, "j0");
  EXPECT_EQ(runs[0].units_done, 2u);
  EXPECT_EQ(runs[0].verdicts.at("killed"), 2u);
  EXPECT_DOUBLE_EQ(runs[1].wall_s, 0.5);
  EXPECT_NE(runs[1].env_json.find("\"os\""), std::string::npos);

  const std::string listing = renderHistoryList(runs);
  EXPECT_NE(listing.find("j0"), std::string::npos);
  EXPECT_NE(listing.find("j1"), std::string::npos);
  const std::string shown = renderHistoryShow(runs[0]);
  EXPECT_NE(shown.find("killed=2"), std::string::npos);
}

TEST(RunHistory, TornTailIsTruncatedThenAppendsCleanly) {
  TempDir dir;
  const std::string path = dir.path + "/runs.rvhx";
  {
    RunHistory store(path);
    ASSERT_TRUE(store.append(sampleRun("j0", 1, 0.1)));
  }
  // Simulate a daemon killed mid-append: torn unparsable tail bytes.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"schema\":\"rvsym-runs-v1\",\"job\":\"j1\",\"ki";
  }
  RunHistory store(path);
  std::vector<std::string> warnings;
  auto runs = store.loadAll(&warnings);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(warnings.empty());
  // The repair leaves a line-aligned file: the next append must parse.
  ASSERT_TRUE(store.append(sampleRun("j2", 1, 0.1)));
  runs = store.loadAll();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].job, "j2");
}

TEST(RunHistory, UnterminatedParsableTailGetsItsNewline) {
  TempDir dir;
  const std::string path = dir.path + "/runs.rvhx";
  writeFile(path, sampleRun("j0", 1, 0.1).toJsonLine());  // no newline
  RunHistory store(path);
  std::vector<std::string> warnings;
  auto runs = store.loadAll(&warnings);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_TRUE(store.append(sampleRun("j1", 1, 0.1)));
  runs = store.loadAll();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].job, "j1");
}

TEST(RunHistory, MissingFileIsEmpty) {
  TempDir dir;
  RunHistory store(dir.path + "/nope.rvhx");
  EXPECT_TRUE(store.loadAll().empty());
}

// --- Regression flagging ------------------------------------------------------------------

namespace {

std::string benchBaseline(double wall_median_us, int hunts) {
  std::string doc =
      "{\"schema\":\"rvsym-bench-run-v1\",\"benches\":[{\"name\":\"table2\","
      "\"wall_median_us\":" + std::to_string(wall_median_us) +
      ",\"report\":{\"payload\":{\"hunts\":[";
  for (int i = 0; i < hunts; ++i) {
    if (i) doc += ",";
    doc += "{\"mutant\":\"m" + std::to_string(i) + "\"}";
  }
  doc += "]}}}]}";
  return doc;
}

}  // namespace

TEST(Regress, GenerousBudgetFlagsNothingTightBudgetFlagsAll) {
  TempDir dir;
  const std::vector<RunRecord> runs = {sampleRun("j0", 2, 0.002),
                                       sampleRun("j1", 1, 0.005)};
  // Generous: 1s median over 10 hunts = 100ms/unit budget.
  writeFile(dir.path + "/ok.json", benchBaseline(1e6, 10));
  std::string err;
  auto findings = flagRegressions(runs, dir.path + "/ok.json", {}, &err);
  ASSERT_TRUE(findings.has_value()) << err;
  EXPECT_TRUE(findings->empty());

  // Tight: 10us median over 10 hunts = 1us/unit budget; both runs blow it.
  writeFile(dir.path + "/tight.json", benchBaseline(10, 10));
  findings = flagRegressions(runs, dir.path + "/tight.json", {}, &err);
  ASSERT_TRUE(findings.has_value()) << err;
  ASSERT_EQ(findings->size(), 2u);
  EXPECT_EQ((*findings)[0].job, "j0");
  EXPECT_GT((*findings)[0].us_per_unit, (*findings)[0].budget_us);
}

TEST(Regress, UnusableBaselineIsAnError) {
  TempDir dir;
  std::string err;
  EXPECT_FALSE(
      flagRegressions({}, dir.path + "/missing.json", {}, &err).has_value());
  writeFile(dir.path + "/bad.json", "{\"schema\":\"other\"}");
  EXPECT_FALSE(
      flagRegressions({}, dir.path + "/bad.json", {}, &err).has_value());
  EXPECT_NE(err.find("rvsym-bench-run-v1"), std::string::npos);
  writeFile(dir.path + "/nohunts.json",
            "{\"schema\":\"rvsym-bench-run-v1\",\"benches\":[{\"name\":"
            "\"table2\",\"wall_median_us\":100}]}");
  EXPECT_FALSE(
      flagRegressions({}, dir.path + "/nohunts.json", {}, &err).has_value());
}

// --- Trace merge --------------------------------------------------------------------------

namespace {

/// One fake per-process chrome trace in the shape the daemon writes:
/// an epoch in otherData for cross-file alignment, pid 1 everywhere.
std::string fakeTrace(const std::string& pname, std::uint64_t epoch_us,
                      const std::vector<std::string>& events) {
  std::string doc = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) doc += ",";
    doc += events[i];
  }
  doc += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"test\","
         "\"process_name\":\"" + pname + "\",\"epoch_us\":" +
         std::to_string(epoch_us) + "}}";
  return doc;
}

std::string spanEvent(const std::string& name, std::uint64_t ts,
                      std::uint64_t dur) {
  return "{\"name\":\"" + name + "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":" +
         std::to_string(ts) + ",\"dur\":" + std::to_string(dur) +
         ",\"pid\":1,\"tid\":0}";
}

}  // namespace

TEST(TraceMerge, RemapsPidsAndAlignsEpochs) {
  TempDir dir;
  // Daemon booted its collector at epoch 1000us, the worker at 1500us:
  // after alignment the worker's local ts 0 lands at merged ts 500.
  writeFile(dir.path + "/daemon.trace.json",
            fakeTrace("rvsym-serve daemon", 1000,
                      {spanEvent("job j0", 0, 900)}));
  writeFile(dir.path + "/worker-w0.trace.json",
            fakeTrace("worker w0", 1500,
                      {spanEvent("shard j0/0", 0, 300),
                       spanEvent("unit m1", 10, 100)}));

  const std::string out = dir.path + "/merged.trace.json";
  std::string err;
  const auto stats = mergeChromeTraceDir(dir.path, out, &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->files, 2u);
  EXPECT_EQ(stats->skipped, 0u);

  const std::string merged = readFile(out);
  const auto doc = rvsym::obs::analyze::parseJson(merged);
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::uint64_t daemon_pid = 0, worker_pid = 0;
  std::uint64_t job_ts = 0, job_dur = 0, shard_ts = 0, shard_dur = 0,
                unit_ts = 0;
  for (const auto& ev : events->items()) {
    const std::string name = ev.getString("name").value_or("");
    if (name == "process_name") {
      const auto* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      const std::string pname = args->getString("name").value_or("");
      if (pname == "rvsym-serve daemon")
        daemon_pid = ev.getU64("pid").value_or(0);
      else if (pname == "worker w0")
        worker_pid = ev.getU64("pid").value_or(0);
    } else if (name == "job j0") {
      job_ts = ev.getU64("ts").value_or(0);
      job_dur = ev.getU64("dur").value_or(0);
      EXPECT_EQ(ev.getU64("pid").value_or(0), 1u);
    } else if (name == "shard j0/0") {
      shard_ts = ev.getU64("ts").value_or(0);
      shard_dur = ev.getU64("dur").value_or(0);
      EXPECT_EQ(ev.getU64("pid").value_or(0), 2u);
    } else if (name == "unit m1") {
      unit_ts = ev.getU64("ts").value_or(0);
    }
  }
  // Distinct pids per input file, daemon first (sorted by filename).
  EXPECT_EQ(daemon_pid, 1u);
  EXPECT_EQ(worker_pid, 2u);
  // Epoch alignment: worker events shifted by 1500-1000 = 500us, and
  // the cross-process containment (job wraps shard wraps unit) holds
  // on the merged timeline.
  EXPECT_EQ(job_ts, 0u);
  EXPECT_EQ(shard_ts, 500u);
  EXPECT_EQ(unit_ts, 510u);
  EXPECT_LE(job_ts, shard_ts);
  EXPECT_LE(shard_ts + shard_dur, job_ts + job_dur);

  // The merged output itself is excluded on a re-merge of the dir.
  const auto again = mergeChromeTraceDir(dir.path, out, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->files, 2u);
}

TEST(TraceMerge, SkipsNonTraceJsonAndFailsOnEmptyDir) {
  TempDir dir;
  std::string err;
  EXPECT_FALSE(
      mergeChromeTraceDir(dir.path, dir.path + "/out.json", &err).has_value());
  writeFile(dir.path + "/junk.json", "{\"not\":\"a trace\"}");
  writeFile(dir.path + "/good.trace.json",
            fakeTrace("p", 0, {spanEvent("s", 0, 1)}));
  const auto stats =
      mergeChromeTraceDir(dir.path, dir.path + "/out.json", &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->files, 1u);
  EXPECT_EQ(stats->skipped, 1u);
}
