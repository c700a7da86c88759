// Tests for the solver acceleration stack (DESIGN.md §10): SolverOptions
// parsing, the counterexample/subsumption cache, UNSAT-core extraction,
// the pre-bitblast rewriter, constraint slicing — and the property that
// holds the whole design together: every layer combination produces the
// same verdicts and the same model() bytes as the plain solver, because
// each layer only changes how an answer is obtained, never which.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "expr/rewrite.hpp"
#include "solver/cexcache.hpp"
#include "solver/options.hpp"
#include "solver/querycache.hpp"
#include "solver/sat.hpp"
#include "solver/solver.hpp"
#include "symex/engine.hpp"

namespace rvsym::solver {
namespace {

using expr::Assignment;
using expr::ExprBuilder;
using expr::ExprRef;

// --- SolverOptions parsing ------------------------------------------------------

TEST(SolverOptions, ParseSpecs) {
  SolverOptions o;
  EXPECT_TRUE(parseSolverOpt("all", &o));
  EXPECT_EQ(o, SolverOptions::all());
  EXPECT_TRUE(parseSolverOpt("none", &o));
  EXPECT_EQ(o, SolverOptions::none());
  EXPECT_FALSE(o.any());

  EXPECT_TRUE(parseSolverOpt("cex", &o));
  EXPECT_TRUE(o.cex_cache);
  EXPECT_FALSE(o.unsat_cores);
  EXPECT_FALSE(o.selectorMode());

  EXPECT_TRUE(parseSolverOpt("cex,cores", &o));
  EXPECT_TRUE(o.cex_cache);
  EXPECT_TRUE(o.unsat_cores);
  EXPECT_TRUE(o.selectorMode());

  std::string err;
  EXPECT_FALSE(parseSolverOpt("cex,bogus", &o, &err));
  EXPECT_FALSE(err.empty());
}

TEST(SolverOptions, NameRoundTrips) {
  const std::vector<std::string> specs = {"all", "none", "cex", "cex,cores",
                                          "rewrite", "slice"};
  for (const std::string& spec : specs) {
    SolverOptions o;
    ASSERT_TRUE(parseSolverOpt(spec, &o)) << spec;
    SolverOptions back;
    ASSERT_TRUE(parseSolverOpt(solverOptName(o), &back)) << spec;
    EXPECT_EQ(o, back) << spec;
  }
}

// --- CexCache -------------------------------------------------------------------

CanonHash h(std::uint64_t lo, std::uint64_t hi) { return CanonHash{lo, hi}; }

TEST(CexCache, ModelStoreFirstWriterWins) {
  CexCache cex;
  EXPECT_FALSE(cex.lookupModel(h(1, 1)).has_value());

  CexCache::Model m1;
  m1.values = {{h(10, 0), 7}, {h(20, 0), 9}};
  cex.insertModel(h(1, 1), m1);
  CexCache::Model m2;
  m2.values = {{h(10, 0), 99}};
  cex.insertModel(h(1, 1), m2);  // same key, different witness: dropped

  const auto got = cex.lookupModel(h(1, 1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->get(h(10, 0)), std::make_optional<std::uint64_t>(7));
  EXPECT_EQ(got->get(h(20, 0)), std::make_optional<std::uint64_t>(9));
  EXPECT_FALSE(got->get(h(30, 0)).has_value());
  EXPECT_EQ(cex.stats().models, 1u);
}

TEST(CexCache, CoreSubsetSubsumes) {
  CexCache cex;
  cex.insertCore({h(1, 0), h(2, 0)});
  cex.insertCore({h(2, 0), h(1, 0)});  // same set: deduplicated
  EXPECT_EQ(cex.stats().cores, 1u);

  // Supersets of {1,2} are subsumed, others are not.
  EXPECT_TRUE(cex.subsumesUnsat({h(1, 0), h(2, 0)}));
  EXPECT_TRUE(cex.subsumesUnsat({h(3, 0), h(1, 0), h(2, 0)}));
  EXPECT_TRUE(cex.subsumesUnsat({h(1, 0), h(1, 0), h(2, 0)}));  // dups ok
  EXPECT_FALSE(cex.subsumesUnsat({h(1, 0), h(3, 0)}));
  EXPECT_FALSE(cex.subsumesUnsat({h(2, 0)}));
  EXPECT_FALSE(cex.subsumesUnsat({}));
}

// --- SatSolver final-conflict cores ---------------------------------------------

TEST(Sat, FinalConflictIsCoreOverAssumptions) {
  SatSolver s;
  const Var a = s.newVar();
  const Var b = s.newVar();
  const Var c = s.newVar();
  s.addClause(mkLit(a), mkLit(b));   // a | b
  s.addClause(~mkLit(a), mkLit(c));  // a -> c
  ASSERT_EQ(s.solve(), SatSolver::Result::Sat);  // clauses alone: Sat

  // {a, ~c} conflicts with a->c; ~b is irrelevant and must not be needed.
  const std::vector<Lit> assumps = {~mkLit(b), mkLit(a), ~mkLit(c)};
  ASSERT_EQ(s.solve(assumps), SatSolver::Result::Unsat);
  const std::vector<Lit> core = s.conflict();
  ASSERT_FALSE(core.empty());
  for (const Lit l : core)
    EXPECT_NE(std::find(assumps.begin(), assumps.end(), l), assumps.end());
  // The core alone must still be unsatisfiable with the clauses.
  EXPECT_EQ(s.solve(core), SatSolver::Result::Unsat);
}

TEST(Sat, ConflictEmptyWhenClausesAloneUnsat) {
  SatSolver s;
  const Var a = s.newVar();
  const Var b = s.newVar();
  s.addClause(mkLit(a));
  EXPECT_FALSE(s.addClause(~mkLit(a)));
  EXPECT_EQ(s.solve({mkLit(b)}), SatSolver::Result::Unsat);
  EXPECT_TRUE(s.conflict().empty());
}

TEST(Sat, RandomConflictCoresAreValid) {
  std::mt19937 rng(0x5EED5);
  for (int round = 0; round < 40; ++round) {
    SatSolver s;
    const int num_vars = 5 + static_cast<int>(rng() % 6);
    for (int v = 0; v < num_vars; ++v) s.newVar();
    for (int cl = 0; cl < num_vars * 2; ++cl) {
      std::vector<Lit> clause;
      const int len = 2 + static_cast<int>(rng() % 2);
      for (int k = 0; k < len; ++k)
        clause.push_back(
            mkLit(static_cast<Var>(rng() % static_cast<unsigned>(num_vars)),
                  (rng() & 1) != 0));
      s.addClause(clause);
    }
    if (s.solve() != SatSolver::Result::Sat) continue;  // want Sat clause DB

    std::vector<Lit> assumps;
    for (int v = 0; v < num_vars; ++v)
      assumps.push_back(mkLit(static_cast<Var>(v), (rng() & 1) != 0));
    if (s.solve(assumps) != SatSolver::Result::Unsat) continue;

    const std::vector<Lit> core = s.conflict();
    ASSERT_FALSE(core.empty()) << "round " << round;
    for (const Lit l : core)
      EXPECT_NE(std::find(assumps.begin(), assumps.end(), l), assumps.end())
          << "round " << round;
    EXPECT_EQ(s.solve(core), SatSolver::Result::Unsat) << "round " << round;
    EXPECT_TRUE(s.okay());
  }
}

// --- Pre-bitblast rewrite -------------------------------------------------------

TEST(Rewrite, EqualitySubstRecognizesPins) {
  ExprBuilder eb;
  expr::SubstMap subst;
  const ExprRef v = eb.variable("v", 8);
  const ExprRef flag = eb.variable("flag", 1);

  EXPECT_TRUE(expr::addEqualitySubst(eb, eb.eqConst(v, 42), &subst));
  EXPECT_TRUE(expr::addEqualitySubst(eb, flag, &subst));  // bare 1-bit: pins 1
  EXPECT_FALSE(
      expr::addEqualitySubst(eb, eb.ult(v, eb.constant(99, 8)), &subst));
  EXPECT_EQ(subst.size(), 2u);

  // Under the environment, expressions over pinned variables fold.
  const ExprRef folded =
      expr::rewriteExpr(eb, eb.eq(eb.add(v, v), eb.constant(84, 8)), subst);
  ASSERT_TRUE(folded->isConstant());
  EXPECT_EQ(folded->constantValue(), 1u);
  const ExprRef f2 = expr::rewriteExpr(eb, eb.notOp(flag), subst);
  ASSERT_TRUE(f2->isConstant());
  EXPECT_EQ(f2->constantValue(), 0u);
}

/// Random expression over named variables, used by the rewrite and
/// pipeline fuzzers below.
ExprRef randomBv(ExprBuilder& eb, std::mt19937_64& rng, unsigned width,
                 int depth) {
  if (depth <= 0) {
    switch (rng() % 4) {
      case 0: return eb.variable("x", width);
      case 1: return eb.variable("y", width);
      case 2: return eb.variable("z", width);
      default: return eb.constant(rng(), width);
    }
  }
  const auto sub = [&] { return randomBv(eb, rng, width, depth - 1); };
  switch (rng() % 10) {
    case 0: return eb.add(sub(), sub());
    case 1: return eb.sub(sub(), sub());
    case 2: return eb.andOp(sub(), sub());
    case 3: return eb.orOp(sub(), sub());
    case 4: return eb.xorOp(sub(), sub());
    case 5: return eb.notOp(sub());
    case 6: return eb.zext(eb.extract(sub(), 0, width / 2), width);
    case 7: return eb.sext(eb.extract(sub(), 0, width / 2), width);
    case 8: return eb.ite(eb.eq(sub(), sub()), sub(), sub());
    default: return eb.mul(sub(), sub());
  }
}

ExprRef randomBool(ExprBuilder& eb, std::mt19937_64& rng, unsigned width,
                   int depth) {
  const auto bv = [&] { return randomBv(eb, rng, width, depth); };
  switch (rng() % (depth > 0 ? 6 : 4)) {
    case 0: return eb.eq(bv(), bv());
    case 1: return eb.ult(bv(), bv());
    case 2: return eb.ule(bv(), bv());
    case 3: return eb.slt(bv(), bv());
    case 4:
      return eb.boolAnd(randomBool(eb, rng, width, depth - 1),
                        randomBool(eb, rng, width, depth - 1));
    default:
      return eb.boolNot(randomBool(eb, rng, width, depth - 1));
  }
}

TEST(Rewrite, DifferentialAgainstEvaluate) {
  // rewriteExpr must be equivalence-preserving under the substitution
  // environment: for assignments consistent with the pins, original and
  // rewritten expressions evaluate identically (expr::evaluate is the
  // single source of truth).
  const unsigned width = 8;
  for (int round = 0; round < 200; ++round) {
    ExprBuilder eb;
    std::mt19937_64 rng(0xD1FF + static_cast<unsigned>(round) * 131);
    const ExprRef x = eb.variable("x", width);
    const ExprRef y = eb.variable("y", width);
    const ExprRef z = eb.variable("z", width);

    expr::SubstMap subst;
    const std::uint64_t x_pin = rng() & 0xFF;
    expr::addEqualitySubst(eb, eb.eqConst(x, x_pin), &subst);

    const ExprRef e = randomBool(eb, rng, width, 2);
    const ExprRef r = expr::rewriteExpr(eb, e, subst);
    for (int sample = 0; sample < 16; ++sample) {
      Assignment asg;
      asg.set(x->variableId(), x_pin);  // consistent with the pin
      asg.set(y->variableId(), rng() & 0xFF);
      asg.set(z->variableId(), rng() & 0xFF);
      EXPECT_EQ(expr::evaluate(e, asg), expr::evaluate(r, asg))
          << "round " << round << " sample " << sample;
    }
  }
}

// --- PathSolver pipeline: differential + brute-force fuzz -----------------------

/// Brute-force satisfiability of (constraints ∧ assumption) over the
/// three 4-bit variables — ground truth for the pipeline fuzzer.
bool bruteSat(const std::vector<ExprRef>& constraints, const ExprRef& assumption,
              std::uint64_t xid, std::uint64_t yid, std::uint64_t zid) {
  for (std::uint64_t v = 0; v < (1u << 12); ++v) {
    Assignment asg;
    asg.set(xid, v & 0xF);
    asg.set(yid, (v >> 4) & 0xF);
    asg.set(zid, (v >> 8) & 0xF);
    bool all = true;
    for (const ExprRef& c : constraints)
      if (expr::evaluate(c, asg) != 1) {
        all = false;
        break;
      }
    if (all && (!assumption || expr::evaluate(assumption, asg) == 1))
      return true;
  }
  return false;
}

TEST(SolverOpt, DifferentialFuzzAllLayersVsPlain) {
  // One builder, hasher and shared caches across every round — the same
  // cross-path reuse shape a live engine run produces — against (a) a
  // fresh plain solver per round and (b) brute force at width 4.
  const unsigned width = 4;
  ExprBuilder eb;
  CanonicalHasher hasher;
  QueryCache qc;
  CexCache cex;
  const ExprRef x = eb.variable("x", width);
  const ExprRef y = eb.variable("y", width);
  const ExprRef z = eb.variable("z", width);

  for (int round = 0; round < 60; ++round) {
    std::mt19937_64 rng(0xFA57 + static_cast<unsigned>(round) * 977);
    PathSolver plain(eb);  // SolverOptions::none() by default
    PathSolver accel(eb);
    accel.setOptions(SolverOptions::all());
    accel.attachCache(&qc, &hasher);
    accel.attachCexCache(&cex);

    std::vector<ExprRef> constraints;
    bool path_dead = false;
    for (int step = 0; step < 10 && !path_dead; ++step) {
      const ExprRef e = randomBool(eb, rng, width, 2);
      if (rng() % 3 == 0) {
        if (e->isConstant()) continue;  // engines stop on constant-false
        // Only conjoin satisfiable extensions, like the engine does
        // after a Sat branch check.
        std::vector<ExprRef> next = constraints;
        next.push_back(e);
        if (!bruteSat(next, nullptr, x->variableId(), y->variableId(),
                      z->variableId())) {
          path_dead = true;
          continue;
        }
        ASSERT_TRUE(plain.addConstraint(e));
        ASSERT_TRUE(accel.addConstraint(e));
        constraints = std::move(next);
      } else {
        const bool expected = bruteSat(constraints, e, x->variableId(),
                                       y->variableId(), z->variableId());
        const CheckResult want =
            expected ? CheckResult::Sat : CheckResult::Unsat;
        EXPECT_EQ(plain.check(e), want) << "round " << round << " step " << step;
        EXPECT_EQ(accel.check(e), want) << "round " << round << " step " << step;
      }
    }
    if (path_dead) continue;
    EXPECT_EQ(plain.checkPath(), CheckResult::Sat) << "round " << round;
    EXPECT_EQ(accel.checkPath(), CheckResult::Sat) << "round " << round;

    // model() purity: identical bytes no matter which layers ran or what
    // the caches contain.
    const auto mp = plain.model();
    const auto ma = accel.model();
    ASSERT_TRUE(mp.has_value());
    ASSERT_TRUE(ma.has_value());
    EXPECT_EQ(mp->values(), ma->values()) << "round " << round;
  }
  // The shared stores must have seen real traffic for this to have
  // tested anything.
  EXPECT_GT(cex.stats().models + cex.stats().cores, 0u);
}

TEST(SolverOpt, SlicingSolvesOnlyTheConnectedComponent) {
  ExprBuilder eb;
  PathSolver ps(eb);
  ps.setOptions(SolverOptions::all());
  const ExprRef x = eb.variable("x", 8);
  const ExprRef y = eb.variable("y", 8);
  ASSERT_TRUE(ps.addConstraint(eb.ult(x, eb.constant(10, 8))));
  ASSERT_TRUE(ps.addConstraint(eb.ult(y, eb.constant(5, 8))));

  // The assumption touches only x; y's conjunct is a separate component
  // (and y=0 — the value unsolved variables default to — satisfies it,
  // so the sliced model extends to a whole-set witness).
  EXPECT_EQ(ps.check(eb.eqConst(x, 3)), CheckResult::Sat);
  EXPECT_GE(ps.stats().sliced_solves, 1u);
  EXPECT_EQ(ps.check(eb.eqConst(x, 12)), CheckResult::Unsat);
  EXPECT_EQ(ps.checkPath(), CheckResult::Sat);
}

TEST(SolverOpt, BudgetedChecksBypassAccelerationLayers) {
  // A nonzero conflict budget must reach the real solver: Unknown is
  // budget-dependent, so no cache layer may answer (or record) it.
  ExprBuilder eb;
  QueryCache qc;
  CanonicalHasher hasher;
  PathSolver ps(eb);
  ps.setOptions(SolverOptions::all());
  ps.attachCache(&qc, &hasher);
  const ExprRef x = eb.variable("x", 8);
  ASSERT_TRUE(ps.addConstraint(eb.ult(x, eb.constant(200, 8))));
  EXPECT_EQ(ps.check(eb.eqConst(x, 7), 1'000'000), CheckResult::Sat);
  const QueryStats& s = ps.stats();
  EXPECT_EQ(s.cex_model_hits + s.cex_core_hits + s.rewrite_decided, 0u);
  EXPECT_GE(s.sat_solves, 1u);
}

// --- Shared caches under concurrency --------------------------------------------

TEST(SolverOpt, SharedCachesAcrossThreadsKeepVerdicts) {
  // Four workers, each with a private builder and hasher (the canonical
  // hash is name-based, so entries transfer across builders), sharing
  // one QueryCache and one CexCache — the parallel engine's exact
  // sharing shape. Workloads overlap heavily so cross-thread hits are
  // real; every verdict must match the single-threaded plain reference.
  const unsigned width = 4;
  const int kThreads = 4;
  const int kRounds = 12;
  const int kSteps = 8;

  // Reference pass: plain solver, fresh per round.
  std::vector<std::vector<CheckResult>> expected(kRounds);
  {
    ExprBuilder eb;
    const ExprRef x = eb.variable("x", width);
    const ExprRef y = eb.variable("y", width);
    const ExprRef z = eb.variable("z", width);
    (void)x;
    (void)y;
    (void)z;
    for (int round = 0; round < kRounds; ++round) {
      std::mt19937_64 rng(0xC0DE + static_cast<unsigned>(round) * 31);
      PathSolver ps(eb);
      for (int step = 0; step < kSteps; ++step) {
        const ExprRef e = randomBool(eb, rng, width, 2);
        if (e->isConstant()) continue;
        if (step % 3 == 0) {
          if (ps.check(e) == CheckResult::Sat) ps.addConstraint(e);
        } else {
          expected[static_cast<std::size_t>(round)].push_back(ps.check(e));
        }
      }
    }
  }

  QueryCache shared_qc;
  CexCache shared_cex;
  std::vector<char> ok(static_cast<std::size_t>(kThreads), 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExprBuilder eb;
      CanonicalHasher hasher;
      const ExprRef x = eb.variable("x", width);
      const ExprRef y = eb.variable("y", width);
      const ExprRef z = eb.variable("z", width);
      (void)x;
      (void)y;
      (void)z;
      for (int round = 0; round < kRounds; ++round) {
        // Same seeds in every thread: maximal cache-key overlap.
        std::mt19937_64 rng(0xC0DE + static_cast<unsigned>(round) * 31);
        PathSolver ps(eb);
        ps.setOptions(SolverOptions::all());
        ps.attachCache(&shared_qc, &hasher);
        ps.attachCexCache(&shared_cex);
        std::size_t qi = 0;
        for (int step = 0; step < kSteps; ++step) {
          const ExprRef e = randomBool(eb, rng, width, 2);
          if (e->isConstant()) continue;
          if (step % 3 == 0) {
            if (ps.check(e) == CheckResult::Sat) ps.addConstraint(e);
          } else {
            const CheckResult got = ps.check(e);
            if (got != expected[static_cast<std::size_t>(round)][qi])
              ok[static_cast<std::size_t>(t)] = 0;
            ++qi;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "thread " << t;
}

// --- Engine-level parity --------------------------------------------------------

TEST(SolverOpt, EngineReportIdenticalAcrossLayerConfigs) {
  // The layers must never change what the engine explores or reports:
  // path counts, per-path decision strings and test-vector bytes are
  // byte-identical between --solver-opt=none and the full stack.
  const auto program = [](symex::ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    auto w = st.makeSymbolic("w", 8);
    st.assume(b.ult(v, b.constant(200, 8)));
    if (st.branch(b.eqConst(v, 0x42))) {
      if (st.branch(b.ult(w, b.constant(3, 8)))) st.fail("low w");
    } else if (st.branch(b.bit(v, 0))) {
      st.assume(b.eq(w, v));
    }
  };

  const auto runWith = [&](const char* spec) {
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    SolverOptions sopt;
    EXPECT_TRUE(parseSolverOpt(spec, &sopt));
    opts.solver_opt = sopt;
    symex::Engine engine(opts);
    return engine.run(program);
  };

  const symex::EngineReport base = runWith("none");
  EXPECT_GT(base.completed_paths, 0u);
  EXPECT_EQ(base.error_paths, 1u);
  for (const char* spec : {"cex", "cex,cores", "rewrite", "slice", "all"}) {
    const symex::EngineReport r = runWith(spec);
    EXPECT_EQ(r.completed_paths, base.completed_paths) << spec;
    EXPECT_EQ(r.error_paths, base.error_paths) << spec;
    EXPECT_EQ(r.infeasible_paths, base.infeasible_paths) << spec;
    EXPECT_EQ(r.solver_checks, base.solver_checks) << spec;
    ASSERT_EQ(r.paths.size(), base.paths.size()) << spec;
    for (std::size_t i = 0; i < r.paths.size(); ++i) {
      EXPECT_EQ(r.paths[i].decisions, base.paths[i].decisions) << spec;
      EXPECT_EQ(r.paths[i].has_test, base.paths[i].has_test) << spec;
      ASSERT_EQ(r.paths[i].test.values.size(), base.paths[i].test.values.size())
          << spec;
      for (std::size_t j = 0; j < r.paths[i].test.values.size(); ++j) {
        EXPECT_EQ(r.paths[i].test.values[j].name,
                  base.paths[i].test.values[j].name)
            << spec;
        EXPECT_EQ(r.paths[i].test.values[j].value,
                  base.paths[i].test.values[j].value)
            << spec;
      }
    }
  }
}

}  // namespace
}  // namespace rvsym::solver
