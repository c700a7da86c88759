// Tests for the offline analysis layer (src/obs/analyze): the JSON
// reader, path-tree reconstruction from the JSONL lifecycle trace, the
// coverage replay, the HTML rendering and the run differ — including
// the round-trip acceptance checks: tree-derived counts equal the
// engine's report, per-path solver-time attribution sums to the metrics
// registry's total, and jobs=1 vs jobs=N runs diff clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cosim.hpp"
#include "core/session.hpp"
#include "fault/faults.hpp"
#include "obs/analyze/coverage_map.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/json_reader.hpp"
#include "obs/analyze/path_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rvsym;
using namespace rvsym::obs::analyze;

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_EQ(parseJson("true")->asBool(), true);
  EXPECT_EQ(parseJson("false")->asBool(), false);
  EXPECT_DOUBLE_EQ(parseJson("42")->asDouble(), 42.0);
  EXPECT_DOUBLE_EQ(parseJson("-1.5e3")->asDouble(), -1500.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(JsonReader, ParsesNestedStructure) {
  const auto v = parseJson(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": true})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->isObject());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].getString("b"), "x");
  EXPECT_TRUE(v->find("c")->find("d")->isNull());
  EXPECT_EQ(v->getBool("e"), true);
}

TEST(JsonReader, DecodesEscapes) {
  const auto v = parseJson(R"("a\"b\\c\ndAé")");
  ASSERT_TRUE(v.has_value());
  // A = 'A'; é = é in UTF-8 (0xC3 0xA9).
  EXPECT_EQ(v->asString(), std::string("a\"b\\c\ndA\xC3\xA9"));
}

TEST(JsonReader, DecodesSurrogatePairs) {
  const auto v = parseJson(R"("😀")");  // U+1F600
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->asString(), std::string("\xF0\x9F\x98\x80"));
}

TEST(JsonReader, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parseJson("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseJson("[1,]").has_value());
  EXPECT_FALSE(parseJson("{\"a\" 1}").has_value());
  EXPECT_FALSE(parseJson("12 34").has_value());
  EXPECT_FALSE(parseJson("\"unterminated").has_value());
}

TEST(JsonReader, RoundTripsTraceEventOutput) {
  // What the writer emits, the reader must parse.
  obs::TraceEvent ev("path_end");
  ev.num("path", std::uint64_t{7})
      .str("msg", "quote \" and \n control")
      .boolean("has_test", true)
      .num("t_solver_us", std::uint64_t{123});
  const auto v = parseJson(ev.toJsonl());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->getString("ev"), "path_end");
  EXPECT_EQ(v->getU64("path"), 7u);
  EXPECT_EQ(v->getString("msg"), "quote \" and \n control");
  EXPECT_EQ(v->getBool("has_test"), true);
  EXPECT_EQ(v->getU64("t_solver_us"), 123u);
}

// ---------------------------------------------------------------------------
// Path-tree reconstruction on a hand-written trace

std::vector<std::string> miniTrace() {
  return {
      R"({"ev":"run_start","searcher":"dfs","jobs":1,"trace_version":1})",
      R"({"ev":"schedule","path":0,"depth":0})",
      R"({"ev":"fork","path":1,"parent":0,"depth":1})",
      R"({"ev":"fork","path":2,"parent":0,"depth":2})",
      R"({"ev":"path_end","path":0,"end":"completed","instr":2,"decisions":2,)"
      R"("forks":2,"solver_checks":5,"has_test":true,"msg":"",)"
      R"("tags":"class:alu,op:addi","test":"instr@80000000=32:13",)"
      R"("t_solver_us":100,"t_rtl_us":40})",
      R"({"ev":"fork","path":3,"parent":2,"depth":3})",
      R"({"ev":"path_end","path":2,"end":"error","instr":1,"decisions":2,)"
      R"("forks":1,"solver_checks":3,"has_test":false,"msg":"boom",)"
      R"("t_solver_us":50})",
      R"({"ev":"path_end","path":3,"end":"infeasible","instr":0,)"
      R"("decisions":0,"forks":0,"solver_checks":1,"has_test":false,)"
      R"("msg":"","t_solver_us":25})",
      // Path 1 forked but never scheduled: stays unexplored.
      R"({"ev":"run_end","paths":4,"completed":1,"errors":1,"unexplored":1,)"
      R"("instr":3,"t_s":0.1})",
  };
}

TEST(PathTree, ReconstructsStructure) {
  std::string err;
  const auto tree = PathTree::fromTraceLines(miniTrace(), &err);
  ASSERT_TRUE(tree.has_value()) << err;
  EXPECT_EQ(tree->size(), 4u);
  EXPECT_EQ(tree->jobs(), 1u);
  EXPECT_EQ(tree->searcher(), "dfs");

  const PathNode& root = tree->root();
  EXPECT_EQ(root.children, (std::vector<std::uint64_t>{1, 2}));
  ASSERT_NE(tree->node(3), nullptr);
  EXPECT_EQ(tree->node(3)->parent, 2u);

  const TreeCounts c = tree->counts();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.error, 1u);
  EXPECT_EQ(c.infeasible, 1u);
  EXPECT_EQ(c.unexplored, 1u);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.instructions, 3u);
  EXPECT_EQ(c.tests, 1u);
}

TEST(PathTree, AttributesTime) {
  const auto tree = PathTree::fromTraceLines(miniTrace());
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->totalUs("solver"), 175u);
  EXPECT_EQ(tree->totalUs("rtl"), 40u);

  // Subtree rollup: path 2's subtree = paths 2 and 3.
  const SubtreeStats sub = tree->subtree(2);
  EXPECT_EQ(sub.paths, 2u);
  EXPECT_EQ(sub.solverUs(), 75u);
  EXPECT_EQ(sub.solver_checks, 4u);

  const auto top = tree->topPaths(2, "solver");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->id, 0u);
  EXPECT_EQ(top[1]->id, 2u);

  const auto by_class = tree->timeByTag("class:", "solver");
  ASSERT_EQ(by_class.size(), 1u);
  EXPECT_EQ(by_class.at("class:alu"), 100u);
}

TEST(PathTree, RejectsTracesWithoutRunStart) {
  std::string err;
  EXPECT_FALSE(
      PathTree::fromTraceLines({R"({"ev":"fork","path":1,"parent":0})"}, &err)
          .has_value());
  EXPECT_NE(err.find("run_start"), std::string::npos);
}

TEST(PathTree, RejectsForkFromUnknownParent) {
  std::string err;
  const std::vector<std::string> lines = {
      R"({"ev":"run_start","searcher":"dfs","jobs":1,"trace_version":1})",
      R"({"ev":"fork","path":5,"parent":9,"depth":1})",
  };
  EXPECT_FALSE(PathTree::fromTraceLines(lines, &err).has_value());
  EXPECT_NE(err.find("unknown parent"), std::string::npos);
}

TEST(PathTree, SkipsNonTraceLines) {
  std::vector<std::string> lines = miniTrace();
  lines.insert(lines.begin() + 1, "");
  lines.insert(lines.begin() + 2, "some interleaved log output");
  const auto tree = PathTree::fromTraceLines(lines);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->size(), 4u);
}

TEST(CoverageMap, ParsesSerializedTestVectors) {
  const auto tv =
      parseSerializedTest("reg_x1=32:0 instr@80000000=32:fe010ee3");
  ASSERT_TRUE(tv.has_value());
  ASSERT_EQ(tv->values.size(), 2u);
  EXPECT_EQ(tv->values[0].name, "reg_x1");
  EXPECT_EQ(tv->values[0].width, 32u);
  EXPECT_EQ(tv->values[0].value, 0u);
  EXPECT_EQ(tv->values[1].name, "instr@80000000");
  EXPECT_EQ(tv->values[1].value, 0xfe010ee3u);

  EXPECT_FALSE(parseSerializedTest("malformed-token").has_value());
  EXPECT_FALSE(parseSerializedTest("a=32:zz").has_value());
}

// ---------------------------------------------------------------------------
// Round trip against a real engine run (the acceptance criteria).

core::SessionReport runFaultScenario(unsigned jobs, obs::TraceSink* trace,
                                     obs::MetricsRegistry* metrics,
                                     bool stop_on_error = false) {
  expr::ExprBuilder eb;
  core::SessionOptions opts;
  opts.cosim.rtl = rtl::fixedRtlConfig();
  opts.cosim.iss.csr = iss::CsrConfig::specCorrect();
  opts.cosim.instr_limit = 1;
  opts.cosim.instr_constraint =
      core::CoSimulation::blockSystemInstructions();
  opts.cosim.metrics = metrics;
  // E5 (decoder don't-care) + a modest budget: enough paths for a real
  // tree with forks, errors and test vectors, small enough for CI.
  for (const fault::InjectedError& e : fault::allErrors())
    if (std::string(e.id) == "E5") e.apply(opts.cosim);
  opts.engine.max_paths = 60;
  opts.engine.stop_on_error = stop_on_error;
  opts.engine.jobs = jobs;
  opts.engine.trace = trace;
  opts.engine.metrics = metrics;
  core::VerificationSession session(eb, opts);
  return session.run();
}

TEST(RoundTrip, TreeCountsMatchEngineReport) {
  obs::BufferTraceSink trace;
  obs::MetricsRegistry metrics;
  const core::SessionReport report = runFaultScenario(1, &trace, &metrics);
  ASSERT_GT(report.engine.totalPaths(), 10u);
  ASSERT_GT(report.engine.error_paths, 0u);

  std::string err;
  const auto tree = PathTree::fromTraceLines(trace.lines(), &err);
  ASSERT_TRUE(tree.has_value()) << err;

  // The tree, rebuilt from the trace alone, reproduces the engine's
  // verdict counters exactly.
  const TreeCounts c = tree->counts();
  EXPECT_EQ(c.completed, report.engine.completed_paths);
  EXPECT_EQ(c.error, report.engine.error_paths);
  EXPECT_EQ(c.infeasible, report.engine.infeasible_paths);
  EXPECT_EQ(c.limited, report.engine.limited_paths);
  EXPECT_EQ(c.unexplored, report.engine.unexplored_forks);
  EXPECT_EQ(c.total(), report.engine.totalPaths());
  EXPECT_EQ(c.instructions, report.engine.instructions);
  EXPECT_EQ(c.tests, report.engine.test_vectors);
}

TEST(RoundTrip, SolverTimeAttributionSumsToRegistryTotal) {
  obs::BufferTraceSink trace;
  obs::MetricsRegistry metrics;
  runFaultScenario(1, &trace, &metrics);

  const auto tree = PathTree::fromTraceLines(trace.lines());
  ASSERT_TRUE(tree.has_value());

  // Per-path t_solver_us fields and the registry's solver.check_us
  // histogram time the identical SolveTimer population, so at jobs=1
  // the sums agree exactly (the acceptance bound is 1%).
  const std::uint64_t tree_us = tree->totalUs("solver");
  const std::uint64_t registry_us =
      metrics.histogram("solver.check_us").sumMicros();
  EXPECT_EQ(tree_us, registry_us);
}

TEST(RoundTrip, QcacheByWorkerSumsToRunEndAtJobs4) {
  // At jobs > 1 workers execute paths speculatively, and stopping at the
  // first error discards the ones past it; the run totals must count the
  // committed paths only, as the per-path path_end fields do.
  obs::BufferTraceSink trace;
  const core::SessionReport report =
      runFaultScenario(4, &trace, nullptr, /*stop_on_error=*/true);
  ASSERT_TRUE(report.engine.stopped_early);

  const auto tree = PathTree::fromTraceLines(trace.lines());
  ASSERT_TRUE(tree.has_value());
  std::uint64_t hits = 0, misses = 0;
  for (const auto& [worker, hm] : tree->qcacheByWorker()) {
    hits += hm.first;
    misses += hm.second;
  }
  EXPECT_GT(misses, 0u);

  std::optional<JsonValue> run_end;
  for (const std::string& line : trace.lines()) {
    auto v = parseJson(line);
    ASSERT_TRUE(v.has_value()) << line;
    if (v->getString("ev") == "run_end") run_end = std::move(v);
  }
  ASSERT_TRUE(run_end.has_value());
  EXPECT_EQ(run_end->getU64("qc_hits").value_or(~0ULL), hits);
  EXPECT_EQ(run_end->getU64("qc_misses").value_or(~0ULL), misses);
  EXPECT_EQ(report.engine.qcache_hits, hits);
  EXPECT_EQ(report.engine.qcache_misses, misses);
}

TEST(RoundTrip, CoverageFromTraceMatchesCoverageFromReport) {
  obs::BufferTraceSink trace;
  const core::SessionReport report = runFaultScenario(1, &trace, nullptr);

  const auto tree = PathTree::fromTraceLines(trace.lines());
  ASSERT_TRUE(tree.has_value());
  const core::CoverageCollector from_trace = coverageFromTree(*tree);

  core::CoverageCollector from_report;
  from_report.addReport(report.engine);

  EXPECT_EQ(from_trace.opcodesCovered(), from_report.opcodesCovered());
  EXPECT_EQ(from_trace.coveredCells(), from_report.coveredCells());
  EXPECT_EQ(from_trace.csrAddresses(), from_report.csrAddresses());
  EXPECT_EQ(from_trace.trapCauses(), from_report.trapCauses());
  EXPECT_EQ(from_trace.voterChannels(), from_report.voterChannels());
  EXPECT_EQ(from_trace.distinctWords(), from_report.distinctWords());
}

TEST(RoundTrip, DiffReportsParityAcrossJobs) {
  obs::BufferTraceSink trace1, trace2;
  runFaultScenario(1, &trace1, nullptr);
  runFaultScenario(2, &trace2, nullptr);

  auto tree1 = PathTree::fromTraceLines(trace1.lines());
  auto tree2 = PathTree::fromTraceLines(trace2.lines());
  ASSERT_TRUE(tree1.has_value());
  ASSERT_TRUE(tree2.has_value());

  RunArtifacts a, b;
  a.tree = std::move(*tree1);
  a.coverage = coverageFromTree(a.tree);
  b.tree = std::move(*tree2);
  b.coverage = coverageFromTree(b.tree);
  const DiffResult diff = diffRuns(a, b);
  EXPECT_TRUE(diff.identical()) << diff.render();
}

TEST(RoundTrip, DiffDetectsMutatedTrace) {
  obs::BufferTraceSink trace;
  runFaultScenario(1, &trace, nullptr);

  std::vector<std::string> mutated = trace.lines();
  // Flip one deterministic field: the first error verdict.
  bool flipped = false;
  for (std::string& line : mutated) {
    const std::size_t pos = line.find("\"end\":\"error\"");
    if (pos != std::string::npos) {
      line.replace(pos, 13, "\"end\":\"completed\"");
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);

  auto tree1 = PathTree::fromTraceLines(trace.lines());
  auto tree2 = PathTree::fromTraceLines(mutated);
  ASSERT_TRUE(tree1.has_value());
  ASSERT_TRUE(tree2.has_value());
  RunArtifacts a, b;
  a.tree = std::move(*tree1);
  b.tree = std::move(*tree2);
  const DiffResult diff = diffRuns(a, b);
  EXPECT_FALSE(diff.identical());
  // The difference names the path whose verdict changed.
  bool mentions_end = false;
  for (const std::string& d : diff.differences)
    if (d.find("end differs") != std::string::npos) mentions_end = true;
  EXPECT_TRUE(mentions_end) << diff.render();
}

TEST(RoundTrip, HtmlReportEmbedsCoverageData) {
  obs::BufferTraceSink trace;
  runFaultScenario(1, &trace, nullptr);
  const auto tree = PathTree::fromTraceLines(trace.lines());
  ASSERT_TRUE(tree.has_value());
  const core::CoverageCollector cov = coverageFromTree(*tree);

  const std::string html = renderHtmlReport(cov, &*tree, "unit test");
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("coverage-data"), std::string::npos);
  // The embedded JSON island must itself parse and carry the cell map.
  const std::size_t open = html.find("id=\"coverage-data\">");
  ASSERT_NE(open, std::string::npos);
  const std::size_t start = html.find('\n', open) + 1;
  const std::size_t end = html.find("</script>", start);
  ASSERT_NE(end, std::string::npos);
  const auto data = parseJson(html.substr(start, end - start));
  ASSERT_TRUE(data.has_value());
  const JsonValue* cells = data->find("cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->getU64("total"), 48u);
}

}  // namespace
