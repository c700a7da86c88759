// Tests for parallel exploration and the cross-path query cache: jobs=1
// and jobs=N must reproduce the pinned sequential reference
// byte-for-byte (speculative execution under ordered commit), workers
// must get private builders, and a cached verdict must always equal what
// a fresh solver derives.
#include <gtest/gtest.h>

#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "expr/builder.hpp"
#include "solver/querycache.hpp"
#include "solver/solver.hpp"
#include "symex/engine.hpp"
#include "symex/state.hpp"

namespace rvsym::symex {
namespace {

using expr::ExprBuilder;
using expr::ExprRef;

// A branching program with completed, error and infeasible endings,
// expressed purely through the ExecState interface so it runs
// identically on any worker's private builder.
void treeProgram(ExecState& st) {
  ExprBuilder& eb = st.builder();
  const ExprRef x = st.makeSymbolic("x", 8);
  // Shared-prefix assume: re-checked on every replayed path, so the
  // cross-path cache sees the same query once per path.
  st.assume(eb.notOp(eb.eqConst(x, 0xFF)));
  unsigned v = 0;
  for (unsigned i = 0; i < 4; ++i) {
    st.countInstruction();
    if (st.branch(eb.bit(x, i))) v |= 1u << i;
  }
  if (v == 0b0101) st.fail("bad pattern 0101");
  if (v >= 12) {
    const ExprRef y = st.makeSymbolic("y", 8);
    st.countInstruction(2);
    if (st.branch(eb.ult(y, eb.constant(16, 8))))
      st.assume(eb.bit(y, 7));  // contradicts y < 16 -> Infeasible
  }
}

void expectVectorsEqual(const TestVector& a, const TestVector& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].name, b.values[i].name);
    EXPECT_EQ(a.values[i].width, b.values[i].width);
    EXPECT_EQ(a.values[i].value, b.values[i].value);
  }
}

// Field-by-field report comparison. `seconds` and the qcache counters
// are the documented exceptions: wall time always differs, and cache
// traffic includes speculatively executed paths.
void expectReportsEqual(const EngineReport& a, const EngineReport& b) {
  EXPECT_EQ(a.completed_paths, b.completed_paths);
  EXPECT_EQ(a.error_paths, b.error_paths);
  EXPECT_EQ(a.infeasible_paths, b.infeasible_paths);
  EXPECT_EQ(a.limited_paths, b.limited_paths);
  EXPECT_EQ(a.unexplored_forks, b.unexplored_forks);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.test_vectors, b.test_vectors);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.const_decided, b.const_decided);
  EXPECT_EQ(a.knownbits_decided, b.knownbits_decided);
  EXPECT_EQ(a.solver_decided, b.solver_decided);
  EXPECT_EQ(a.solver_checks, b.solver_checks);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].end, b.paths[i].end) << "path " << i;
    EXPECT_EQ(a.paths[i].message, b.paths[i].message) << "path " << i;
    EXPECT_EQ(a.paths[i].instructions, b.paths[i].instructions) << "path " << i;
    EXPECT_EQ(a.paths[i].decisions, b.paths[i].decisions) << "path " << i;
    ASSERT_EQ(a.paths[i].has_test, b.paths[i].has_test) << "path " << i;
    if (a.paths[i].has_test) expectVectorsEqual(a.paths[i].test, b.paths[i].test);
  }
}

EngineReport runJobs(const EngineOptions& opts, unsigned jobs) {
  EngineOptions with_jobs = opts;
  with_jobs.jobs = jobs;
  Engine engine(with_jobs);
  return engine.run([](WorkerContext&) { return PathProgram(treeProgram); });
}

EngineOptions baseOptions() {
  EngineOptions o;
  o.stop_on_error = false;
  return o;
}

// Commit-order rendering of the path records: end initial, decision
// bits, then the test vector ("c1101:x=11" = completed, decisions
// 1,1,0,1, x solved to 11).
std::string pathSignature(const EngineReport& r) {
  std::string out;
  for (const PathRecord& p : r.paths) {
    if (!out.empty()) out += ' ';
    out += pathEndName(p.end)[0];
    for (const bool d : p.decisions) out += d ? '1' : '0';
    if (p.has_test)
      for (const TestValue& v : p.test.values)
        out += ":" + v.name + "=" + std::to_string(v.value);
  }
  return out;
}

// The exhaustive treeProgram exploration as the single-threaded
// sequential engine reported it, per searcher: every deterministic
// EngineReport field plus the commit-order path records.
struct Reference {
  EngineOptions::Searcher searcher;
  const char* paths;
};

void expectReference(const EngineReport& r, const Reference& ref,
                     unsigned jobs) {
  SCOPED_TRACE("searcher " + std::to_string(static_cast<int>(ref.searcher)) +
               " jobs " + std::to_string(jobs));
  EXPECT_EQ(r.completed_paths, 15u);
  EXPECT_EQ(r.error_paths, 1u);
  EXPECT_EQ(r.infeasible_paths, 4u);
  EXPECT_EQ(r.limited_paths, 0u);
  EXPECT_EQ(r.unexplored_forks, 0u);
  EXPECT_EQ(r.instructions, 96u);
  EXPECT_EQ(r.test_vectors, 16u);
  EXPECT_EQ(r.branches, 88u);
  EXPECT_EQ(r.const_decided, 0u);
  EXPECT_EQ(r.knownbits_decided, 0u);
  EXPECT_EQ(r.solver_decided, 88u);
  EXPECT_EQ(r.solver_checks, 62u);
  EXPECT_FALSE(r.stopped_early);
  EXPECT_EQ(pathSignature(r), ref.paths);
}

TEST(ParallelEngine, Jobs1MatchesSequentialEngine) {
  const Reference refs[] = {
      {EngineOptions::Searcher::Dfs,
       "i11111 c11110:x=15:y=16 c1110:x=7 c1101:x=11 c1100:x=3 i10111 "
       "c10110:x=13:y=16 e1010:x=5 c1001:x=9 c1000:x=1 i01111 "
       "c01110:x=14:y=16 c0110:x=6 c0101:x=10 c0100:x=2 i00111 "
       "c00110:x=12:y=16 c0010:x=4 c0001:x=8 c0000:x=0"},
      {EngineOptions::Searcher::Bfs,
       "i11111 i01111 i10111 c1101:x=11 c1110:x=7 c11110:x=15:y=16 i00111 "
       "c0101:x=10 c0110:x=6 c01110:x=14:y=16 c1001:x=9 e1010:x=5 "
       "c10110:x=13:y=16 c1100:x=3 c0001:x=8 c0010:x=4 c00110:x=12:y=16 "
       "c0100:x=2 c1000:x=1 c0000:x=0"},
      {EngineOptions::Searcher::Random,
       "i11111 c1101:x=11 c1110:x=7 c11110:x=15:y=16 c1100:x=3 i01111 "
       "c0110:x=6 i10111 i00111 c0001:x=8 c0000:x=0 c01110:x=14:y=16 "
       "c10110:x=13:y=16 c0010:x=4 e1010:x=5 c1001:x=9 c00110:x=12:y=16 "
       "c0101:x=10 c0100:x=2 c1000:x=1"},
  };
  for (const Reference& ref : refs) {
    EngineOptions opts = baseOptions();
    opts.searcher = ref.searcher;
    for (const unsigned jobs : {1u, 4u})
      expectReference(runJobs(opts, jobs), ref, jobs);
  }
}

TEST(ParallelEngine, Jobs4MatchesJobs1) {
  const EngineOptions opts = baseOptions();
  const EngineReport one = runJobs(opts, 1);
  const EngineReport four = runJobs(opts, 4);
  expectReportsEqual(one, four);
  // Same set of emitted test vectors in particular: compare the ordered
  // multiset of (name, value) flattenings as an extra explicit check.
  std::multiset<std::string> va, vb;
  const auto flat = [](const EngineReport& r, std::multiset<std::string>& out) {
    for (const PathRecord& p : r.paths)
      if (p.has_test)
        for (const TestValue& v : p.test.values)
          out.insert(v.name + "=" + std::to_string(v.value));
  };
  flat(one, va);
  flat(four, vb);
  EXPECT_EQ(va, vb);
}

TEST(ParallelEngine, ParityAcrossSearchers) {
  for (const EngineOptions::Searcher s :
       {EngineOptions::Searcher::Dfs, EngineOptions::Searcher::Bfs,
        EngineOptions::Searcher::Random}) {
    EngineOptions opts = baseOptions();
    opts.searcher = s;
    expectReportsEqual(runJobs(opts, 1), runJobs(opts, 3));
  }
}

TEST(ParallelEngine, StopOnErrorParity) {
  EngineOptions opts = baseOptions();
  opts.stop_on_error = true;
  const EngineReport one = runJobs(opts, 1);
  // The sequential reference: DFS stops at the eighth path.
  EXPECT_EQ(one.completed_paths, 5u);
  EXPECT_EQ(one.error_paths, 1u);
  EXPECT_EQ(one.infeasible_paths, 2u);
  EXPECT_EQ(one.unexplored_forks, 2u);
  EXPECT_TRUE(one.stopped_early);
  expectReportsEqual(one, runJobs(opts, 4));
}

TEST(ParallelEngine, MaxPathsBudgetParity) {
  EngineOptions opts = baseOptions();
  opts.max_paths = 7;
  const EngineReport one = runJobs(opts, 1);
  // The sequential reference: seven committed paths, three forks left.
  EXPECT_EQ(one.completed_paths, 5u);
  EXPECT_EQ(one.infeasible_paths, 2u);
  EXPECT_EQ(one.unexplored_forks, 3u);
  EXPECT_TRUE(one.stopped_early);
  expectReportsEqual(one, runJobs(opts, 4));
}

TEST(ParallelEngine, WorkersGetPrivateBuilders) {
  EngineOptions opts;
  opts.stop_on_error = false;
  opts.jobs = 4;
  std::mutex mu;
  std::vector<unsigned> worker_ids;
  std::set<const ExprBuilder*> builders;
  Engine engine(opts);
  engine.run([&](WorkerContext& ctx) {
    std::lock_guard<std::mutex> lk(mu);
    worker_ids.push_back(ctx.worker_id);
    builders.insert(&ctx.builder);
    const ExprBuilder* mine = &ctx.builder;
    return [mine](ExecState& st) {
      // Every path a worker runs uses that worker's own builder.
      ASSERT_EQ(&st.builder(), mine);
      treeProgram(st);
    };
  });
  EXPECT_EQ(worker_ids.size(), 4u);
  EXPECT_EQ(builders.size(), 4u);  // four distinct private builders
}

TEST(ParallelEngine, CacheHitsReportedOnRepeatedStructure) {
  EngineOptions opts;
  opts.stop_on_error = false;
  opts.jobs = 1;  // deterministic traffic: hits come from replayed assumes
  Engine engine(opts);
  const EngineReport r = engine.run(PathProgram(treeProgram));
  EXPECT_GT(r.qcache_misses, 0u);
  EXPECT_GT(r.qcache_hits, 0u);
  // The shared-prefix assume is re-checked once per path after the first.
  EXPECT_GE(r.qcache_hits, r.totalPaths() - 1);
}

// --- Query cache ------------------------------------------------------------

TEST(ParallelQueryCache, CanonicalHashIsBuilderIndependent) {
  ExprBuilder a, b;
  solver::CanonicalHasher ha, hb;
  // Interleave unrelated allocations in builder b so ids diverge.
  b.variable("noise", 17);
  const auto build = [](ExprBuilder& eb) {
    const ExprRef x = eb.variable("x", 32);
    const ExprRef y = eb.variable("y", 32);
    return eb.eq(eb.add(x, y), eb.constant(0xCAFE, 32));
  };
  const solver::CanonHash hash_a = ha.hash(build(a));
  const solver::CanonHash hash_b = hb.hash(build(b));
  EXPECT_EQ(hash_a, hash_b);

  // A structurally different expression hashes differently.
  const ExprRef other = a.eq(a.add(a.variable("x", 32), a.variable("y", 32)),
                             a.constant(0xBEEF, 32));
  EXPECT_FALSE(ha.hash(other) == hash_a);
  // Different variable NAME means a different canonical query.
  const ExprRef renamed = a.eq(
      a.add(a.variable("x", 32), a.variable("z", 32)), a.constant(0xCAFE, 32));
  EXPECT_FALSE(ha.hash(renamed) == hash_a);

  // Set accumulation is order-independent (conjunction semantics).
  const solver::CanonHash h1 = ha.hash(other);
  solver::CanonHash s1 = solver::canonSetAdd({}, hash_a);
  s1 = solver::canonSetAdd(s1, h1);
  solver::CanonHash s2 = solver::canonSetAdd({}, h1);
  s2 = solver::canonSetAdd(s2, hash_a);
  EXPECT_EQ(s1, s2);
}

TEST(ParallelQueryCache, CachedVerdictMatchesFreshSolver) {
  // Randomized cross-builder check: whatever verdict the cache serves
  // must equal what a fresh, cache-less solver derives for the same
  // structural query.
  std::mt19937 rng(0xCAC4E);
  solver::QueryCache cache(4);

  std::uint64_t exercised = 0;
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t seed = rng();
    // Recreates the identical structural query from the round seed, in
    // whatever builder it is given.
    const auto buildQuery = [&](ExprBuilder& eb, solver::PathSolver& ps,
                                ExprRef& assumption) {
      std::mt19937 r2(seed);
      const auto rc = [&r2, &eb]() -> ExprRef {
        const ExprRef a = eb.variable("a", 8);
        const ExprRef b = eb.variable("b", 8);
        const std::uint64_t c1 = r2() & 0xFF, c2 = r2() & 0xFF;
        ExprRef cond;
        switch (r2() % 4) {
          case 0:
            cond = eb.eq(eb.add(a, eb.constant(c1, 8)), eb.constant(c2, 8));
            break;
          case 1: cond = eb.ult(eb.xorOp(a, b), eb.constant(c1 | 1, 8)); break;
          case 2:
            cond = eb.bit(eb.add(a, b), static_cast<unsigned>(c1 % 8));
            break;
          default:
            cond = eb.eq(eb.andOp(a, eb.constant(c1, 8)), eb.constant(c2, 8));
            break;
        }
        return (r2() % 2) ? eb.notOp(cond) : cond;
      };
      const unsigned n = 1 + r2() % 3;
      bool ok = true;
      for (unsigned i = 0; i < n; ++i) ok = ps.addConstraint(rc()) && ok;
      assumption = rc();
      return ok;
    };

    // Builder A, cache attached: the defining solve (miss + insert).
    ExprBuilder ea;
    solver::CanonicalHasher hashera;
    solver::PathSolver psa(ea);
    psa.attachCache(&cache, &hashera);
    ExprRef assume_a;
    if (!buildQuery(ea, psa, assume_a)) continue;  // folded unsat: skip
    const solver::CheckResult va = psa.check(assume_a);

    // Builder B, no cache: the ground truth.
    ExprBuilder eb2;
    solver::PathSolver truth(eb2);
    ExprRef assume_t;
    ASSERT_TRUE(buildQuery(eb2, truth, assume_t));
    EXPECT_EQ(truth.check(assume_t), va) << "round " << round;

    // Builder C, cache attached: must be served the same verdict.
    ExprBuilder ec;
    ec.variable("skew", 3);  // desynchronize variable ids on purpose
    solver::CanonicalHasher hasherc;
    solver::PathSolver psc(ec);
    psc.attachCache(&cache, &hasherc);
    ExprRef assume_c;
    ASSERT_TRUE(buildQuery(ec, psc, assume_c));
    EXPECT_EQ(psc.check(assume_c), va) << "round " << round;
    exercised += psc.stats().cache_hits;
  }
  EXPECT_GT(exercised, 0u);          // the cross-builder path actually hit
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace rvsym::symex
