// Tests for the profiling stack: the slow-query corpus format
// (round-trip, replay, ddmin shrinking), SolverTelemetry's dump gating,
// and the phase profiler's folded-stack canonicalization — in
// particular that --jobs 1 and --jobs 4 runs of the same workload
// canonicalize to byte-identical stack sets.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "expr/builder.hpp"
#include "expr/serialize.hpp"
#include "obs/phase.hpp"
#include "solver/corpus.hpp"
#include "solver/solver.hpp"
#include "solver/telemetry.hpp"

namespace rvsym {
namespace {

namespace fs = std::filesystem;
using expr::ExprBuilder;
using expr::ExprRef;
using solver::CheckResult;
using solver::CorpusQuery;

// --- Corpus format ------------------------------------------------------------

CorpusQuery sampleQuery(ExprBuilder& eb) {
  const ExprRef x = eb.variable("x", 32);
  CorpusQuery q;
  q.constraints = {eb.ult(x, eb.constant(10, 32)),
                   eb.ugt(x, eb.constant(3, 32))};
  q.assumption = eb.eqConst(x, 7);
  q.verdict = CheckResult::Sat;
  q.sat_us = 1234;
  q.bitblast_us = 56;
  return q;
}

TEST(Corpus, FormatParseRoundTripPreservesQuery) {
  ExprBuilder eb;
  const CorpusQuery q = sampleQuery(eb);
  const std::string text = solver::formatQuery(q);
  ASSERT_FALSE(text.empty());

  ExprBuilder eb2;  // parse into a fresh builder: no shared interning
  std::string err;
  const auto back = solver::parseQuery(eb2, text, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->constraints.size(), 2u);
  EXPECT_TRUE(back->assumption);
  EXPECT_EQ(back->verdict, CheckResult::Sat);
  EXPECT_EQ(back->sat_us, 1234u);
  EXPECT_EQ(back->bitblast_us, 56u);
  EXPECT_GT(back->nodes, 0u);

  // Serialization is canonical: reformatting the parsed query is
  // byte-identical, so corpus files are stable across load/store.
  EXPECT_EQ(solver::formatQuery(*back), text);
}

TEST(Corpus, ReplayReproducesRecordedVerdicts) {
  {
    ExprBuilder eb;
    const CorpusQuery q = sampleQuery(eb);
    std::uint64_t us = 0;
    EXPECT_EQ(solver::replayQuery(eb, q, &us), CheckResult::Sat);
  }
  {
    ExprBuilder eb;
    const ExprRef x = eb.variable("x", 8);
    CorpusQuery q;
    q.constraints = {eb.ult(x, eb.constant(5, 8)),
                     eb.ugt(x, eb.constant(10, 8))};
    q.verdict = CheckResult::Unsat;
    EXPECT_EQ(solver::replayQuery(eb, q), CheckResult::Unsat);
  }
}

TEST(Corpus, DdminShrinksToMinimalCoreWithSameVerdict) {
  ExprBuilder eb;
  const ExprRef x = eb.variable("x", 16);
  const ExprRef y = eb.variable("y", 16);
  CorpusQuery q;
  // Exactly one unsat core {x < 5, x > 10}; the y constraints and the
  // loose x bound are noise ddmin must discard.
  q.constraints = {eb.ult(x, eb.constant(5, 16)),
                   eb.ugt(y, eb.constant(0, 16)),
                   eb.ugt(x, eb.constant(10, 16)),
                   eb.ult(y, eb.constant(9999, 16)),
                   eb.ult(x, eb.constant(500, 16))};
  q.verdict = CheckResult::Unsat;

  std::uint64_t replays = 0;
  const std::vector<ExprRef> minimal =
      solver::ddminConstraints(eb, q, &replays);
  EXPECT_EQ(minimal.size(), 2u);
  EXPECT_GT(replays, 0u);

  CorpusQuery reduced = q;
  reduced.constraints = minimal;
  EXPECT_EQ(solver::replayQuery(eb, reduced), CheckResult::Unsat);
}

TEST(Corpus, DdminOnSatQueryMayDropEverything) {
  // Every subset of a sat conjunction is sat, so the 1-minimal subset
  // preserving the verdict is empty — the degenerate but correct floor.
  ExprBuilder eb;
  const ExprRef x = eb.variable("x", 8);
  CorpusQuery q;
  q.constraints = {eb.ult(x, eb.constant(200, 8))};
  q.verdict = CheckResult::Sat;
  const std::vector<ExprRef> minimal = solver::ddminConstraints(eb, q);
  EXPECT_TRUE(minimal.empty());
  CorpusQuery reduced = q;
  reduced.constraints = minimal;
  EXPECT_EQ(solver::replayQuery(eb, reduced), CheckResult::Sat);
}

// --- SolverTelemetry gating ---------------------------------------------------

TEST(Telemetry, RecordGatesDumpOnThresholdVerdictAndDedup) {
  solver::SolverTelemetry::Options opts;
  opts.slow_query_us = 100;
  opts.corpus_dir = testing::TempDir() + "rvsym_telemetry_gate";
  solver::SolverTelemetry t(opts);

  solver::SolverTelemetry::Query slow;
  slow.hash = {0x1111, 0x2222};
  slow.sat_us = 150;
  slow.verdict = CheckResult::Sat;
  EXPECT_TRUE(t.record(slow));   // slow + definitive + fresh hash
  EXPECT_FALSE(t.record(slow));  // same hash: already claimed for dump

  solver::SolverTelemetry::Query fast = slow;
  fast.hash = {0x3333, 0x4444};
  fast.sat_us = 10;
  EXPECT_FALSE(t.record(fast));  // under the threshold

  solver::SolverTelemetry::Query unknown = slow;
  unknown.hash = {0x5555, 0x6666};
  unknown.verdict = CheckResult::Unknown;
  EXPECT_FALSE(t.record(unknown));  // budget artifact: never dumped

  solver::SolverTelemetry::Query hit = slow;
  hit.hash = {0x7777, 0x8888};
  hit.disposition = solver::SolverTelemetry::Disposition::Hit;
  EXPECT_FALSE(t.record(hit));  // cache hit: nothing was solved

  EXPECT_EQ(t.queries(), 5u);
  EXPECT_EQ(t.slowQueries(), 3u);  // slow, slow-again, unknown
}

TEST(Telemetry, DumpedQueryLoadsAndReplaysToRecordedVerdict) {
  const std::string dir = testing::TempDir() + "rvsym_telemetry_dump";
  fs::remove_all(dir);
  solver::SolverTelemetry::Options opts;
  opts.slow_query_us = 1;
  opts.corpus_dir = dir;
  solver::SolverTelemetry t(opts);

  ExprBuilder eb;
  const CorpusQuery q = sampleQuery(eb);
  solver::SolverTelemetry::Query rec;
  rec.hash = {0xabcd, 0xef01};
  rec.sat_us = 99;
  rec.verdict = CheckResult::Sat;
  ASSERT_TRUE(t.record(rec));
  ASSERT_TRUE(t.dump(rec, q.constraints, q.assumption, "p cnf 0 0\n"));
  EXPECT_EQ(t.dumpedQueries(), 1u);

  std::string query_path, cnf_path;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".query") query_path = e.path().string();
    if (e.path().extension() == ".cnf") cnf_path = e.path().string();
  }
  ASSERT_FALSE(query_path.empty());
  EXPECT_FALSE(cnf_path.empty());

  ExprBuilder eb2;
  std::string err;
  const auto loaded = solver::loadQueryFile(eb2, query_path, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->verdict, CheckResult::Sat);
  EXPECT_EQ(loaded->sat_us, 99u);
  EXPECT_EQ(solver::replayQuery(eb2, *loaded), CheckResult::Sat);
  fs::remove_all(dir);
}

// --- PhaseProfiler ------------------------------------------------------------

TEST(PhaseProfiler, FoldedAttributesSelfTimePerStack) {
  obs::PhaseProfiler p;
  {
    const obs::PhaseTimer a(&p, "path");
    const obs::PhaseTimer b(&p, "solver");
  }
  {
    const obs::PhaseTimer a(&p, "path");
  }
  EXPECT_EQ(p.distinctStacks(), 2u);
  const std::string folded = p.folded();
  EXPECT_NE(folded.find("path "), std::string::npos);
  EXPECT_NE(folded.find("path;solver "), std::string::npos);
}

TEST(PhaseProfiler, CanonicalizeZeroesTheValueColumn) {
  EXPECT_EQ(obs::PhaseProfiler::canonicalizeFolded(
                "path 123\npath;rtl;solver 4567\n"),
            "path 0\npath;rtl;solver 0\n");
}

TEST(PhaseProfiler, NullProfilerTimerIsANoop) {
  const obs::PhaseTimer t(nullptr, "path");  // must not crash
}

TEST(PhaseProfiler, FoldedStacksAreJobsInvariantAfterCanonicalization) {
  const auto runFolded = [](unsigned jobs) {
    ExprBuilder eb;
    core::SessionOptions options;
    options.cosim.instr_limit = 1;
    options.engine.max_paths = 40;
    options.engine.jobs = jobs;
    obs::PhaseProfiler profiler;
    options.engine.profiler = &profiler;
    core::VerificationSession session(eb, options);
    (void)session.run();
    return obs::PhaseProfiler::canonicalizeFolded(profiler.folded());
  };
  const std::string one = runFolded(1);
  const std::string four = runFolded(4);
  EXPECT_FALSE(one.empty());
  // Which stacks exist is structural (same workload, same paths); only
  // the zeroed value column differed between worker counts.
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace rvsym
