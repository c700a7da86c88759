// Tests for the path-exploration engine: forking, replay alignment,
// known-bits fast path, assume pruning, searchers, budgets and test-vector
// generation.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "symex/engine.hpp"
#include "symex/knownbits.hpp"
#include "symex/state.hpp"

namespace rvsym::symex {
namespace {

using expr::ExprBuilder;
using expr::ExprRef;

EngineOptions defaultOptions() {
  EngineOptions o;
  o.stop_on_error = false;
  return o;
}

// --- Known bits ----------------------------------------------------------------

TEST(KnownBits, EqConstOnExtractRecordsField) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto instr = eb.variable("instr", 32);
  kb.assumeTrue(eb.eq(eb.extract(instr, 0, 7), eb.constant(0x33, 7)));

  // The same field compared against the same constant is decided true...
  auto same = eb.eq(eb.extract(instr, 0, 7), eb.constant(0x33, 7));
  EXPECT_EQ(kb.tryEvalBool(same), std::make_optional(true));
  // ...and against a different constant decided false.
  auto other = eb.eq(eb.extract(instr, 0, 7), eb.constant(0x13, 7));
  EXPECT_EQ(kb.tryEvalBool(other), std::make_optional(false));
  // An unrelated field stays unknown.
  auto funct3 = eb.eq(eb.extract(instr, 12, 3), eb.constant(0, 3));
  EXPECT_EQ(kb.tryEvalBool(funct3), std::nullopt);
}

TEST(KnownBits, SubFieldOfKnownFieldIsKnown) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto instr = eb.variable("instr", 32);
  kb.assumeTrue(eb.eq(eb.extract(instr, 0, 8), eb.constant(0xA5, 8)));
  auto low_nibble = eb.eq(eb.extract(instr, 0, 4), eb.constant(0x5, 4));
  EXPECT_EQ(kb.tryEvalBool(low_nibble), std::make_optional(true));
  auto high_nibble = eb.eq(eb.extract(instr, 4, 4), eb.constant(0x3, 4));
  EXPECT_EQ(kb.tryEvalBool(high_nibble), std::make_optional(false));
}

TEST(KnownBits, SingleBitFacts) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto v = eb.variable("v", 32);
  kb.assumeTrue(eb.bit(v, 3));                 // bit 3 == 1
  kb.assumeTrue(eb.notOp(eb.bit(v, 4)));       // bit 4 == 0
  EXPECT_EQ(kb.tryEvalBool(eb.bit(v, 3)), std::make_optional(true));
  EXPECT_EQ(kb.tryEvalBool(eb.bit(v, 4)), std::make_optional(false));
  EXPECT_EQ(kb.tryEvalBool(eb.bit(v, 5)), std::nullopt);
}

TEST(KnownBits, ConjunctionDescends) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto v = eb.variable("v", 16);
  kb.assumeTrue(eb.boolAnd(eb.eq(eb.extract(v, 0, 8), eb.constant(1, 8)),
                           eb.eq(eb.extract(v, 8, 8), eb.constant(2, 8))));
  EXPECT_EQ(kb.tryEvalBool(eb.eqConst(v, 0x0201)), std::make_optional(true));
  EXPECT_EQ(kb.tryEvalBool(eb.eqConst(v, 0x0202)), std::make_optional(false));
}

TEST(KnownBits, ComputePropagatesThroughOps) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto v = eb.variable("v", 8);
  kb.assumeTrue(eb.eqConst(v, 0x0F));
  EXPECT_EQ(kb.tryEvalBool(
                eb.eq(eb.andOp(v, eb.constant(0xF0, 8)), eb.constant(0, 8))),
            std::make_optional(true));
  EXPECT_EQ(kb.tryEvalBool(
                eb.eq(eb.xorOp(v, eb.constant(0xFF, 8)), eb.constant(0xF0, 8))),
            std::make_optional(true));
  EXPECT_EQ(kb.tryEvalBool(eb.ult(v, eb.constant(0x10, 8))),
            std::make_optional(true));
  EXPECT_EQ(kb.tryEvalBool(eb.slt(v, eb.constant(0, 8))),
            std::make_optional(false));
}

TEST(KnownBits, AddCarriesThroughKnownLowBits) {
  ExprBuilder eb;
  KnownBitsTracker kb;
  auto v = eb.variable("v", 8);
  kb.assumeTrue(eb.eq(eb.extract(v, 0, 4), eb.constant(0xF, 4)));
  // v + 1 has low nibble 0 regardless of the unknown high nibble.
  auto sum_low =
      eb.eq(eb.extract(eb.add(v, eb.constant(1, 8)), 0, 4), eb.constant(0, 4));
  EXPECT_EQ(kb.tryEvalBool(sum_low), std::make_optional(true));
}

TEST(KnownBits, ComputeIsSoundOnRandomExpressions) {
  // Soundness property: whatever compute() claims to know about an
  // expression must hold under EVERY assignment consistent with the
  // recorded facts. Exercised over random small expressions and random
  // bit-level facts, checked by brute force.
  std::mt19937 rng(0x50D1);
  for (int round = 0; round < 150; ++round) {
    ExprBuilder eb;
    KnownBitsTracker kb;
    auto v = eb.variable("v", 6);

    // Random facts: a random subfield pinned to a random value.
    const unsigned lo = rng() % 5;
    const unsigned w = 1 + rng() % (6 - lo);
    const std::uint64_t field = rng() & expr::widthMask(w);
    kb.assumeTrue(eb.eq(eb.extract(v, lo, w), eb.constant(field, w)));

    // Random expression over v.
    ExprRef e;
    switch (rng() % 8) {
      case 0: e = eb.andOp(v, eb.constant(rng() & 63, 6)); break;
      case 1: e = eb.orOp(v, eb.constant(rng() & 63, 6)); break;
      case 2: e = eb.xorOp(v, eb.constant(rng() & 63, 6)); break;
      case 3: e = eb.add(v, eb.constant(rng() & 63, 6)); break;
      case 4: e = eb.notOp(v); break;
      case 5: e = eb.extract(eb.zext(v, 12), rng() % 6, 4); break;
      case 6: e = eb.concat(eb.extract(v, 0, 3), eb.extract(v, 3, 3)); break;
      default:
        e = eb.ite(eb.eqConst(eb.extract(v, 0, 2), rng() & 3),
                   eb.constant(rng() & 63, 6), v);
        break;
    }

    const KnownBits claimed = kb.compute(e);
    // Brute force over all v consistent with the fact.
    for (std::uint64_t val = 0; val < 64; ++val) {
      if (((val >> lo) & expr::widthMask(w)) != field) continue;
      expr::Assignment asg;
      asg.set(v->variableId(), val);
      const std::uint64_t actual = expr::evaluate(e, asg);
      EXPECT_EQ(actual & claimed.mask, claimed.value & claimed.mask)
          << "round " << round << " v=" << val;
    }
  }
}

// --- Engine: path enumeration -----------------------------------------------------

TEST(Engine, EnumeratesAllLeavesOfBranchTree) {
  Engine engine(defaultOptions());
  std::multiset<int> leaves;
  auto report = engine.run([&](ExecState& st) {
    auto v = st.makeSymbolic("v", 2);
    int leaf = 0;
    if (st.branch(st.builder().bit(v, 0))) leaf |= 1;
    if (st.branch(st.builder().bit(v, 1))) leaf |= 2;
    leaves.insert(leaf);
  });
  EXPECT_EQ(report.completed_paths, 4u);
  EXPECT_EQ(report.error_paths, 0u);
  EXPECT_EQ(leaves.size(), 4u);
  EXPECT_EQ(std::set<int>(leaves.begin(), leaves.end()).size(), 4u);
}

TEST(Engine, ConstraintsPruneInfeasibleDirections) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    st.assume(b.ult(v, b.constant(10, 8)));
    // Infeasible direction must not fork.
    if (st.branch(b.uge(v, b.constant(100, 8)))) st.fail("impossible");
  });
  EXPECT_EQ(report.completed_paths, 1u);
  EXPECT_EQ(report.error_paths, 0u);
}

TEST(Engine, AssumeFalseTerminatesInfeasible) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    st.assume(st.builder().falseExpr());
    FAIL() << "unreachable";
  });
  EXPECT_EQ(report.completed_paths, 0u);
  EXPECT_EQ(report.infeasible_paths, 1u);
}

TEST(Engine, ContradictoryAssumesPrune) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    st.assume(b.eqConst(v, 3));
    st.assume(b.eqConst(v, 4));
    FAIL() << "unreachable";
  });
  EXPECT_EQ(report.infeasible_paths, 1u);
}

TEST(Engine, ErrorPathsCarryMessageAndTestVector) {
  EngineOptions opts = defaultOptions();
  Engine engine(opts);
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("magic", 32);
    if (st.branch(b.eqConst(v, 0xDEADBEEF))) st.fail("found magic");
  });
  EXPECT_EQ(report.error_paths, 1u);
  EXPECT_EQ(report.completed_paths, 1u);
  const PathRecord* err = report.firstError();
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "found magic");
  ASSERT_TRUE(err->has_test);
  EXPECT_EQ(err->test.lookup("magic"), std::make_optional<std::uint64_t>(0xDEADBEEF));
}

TEST(Engine, StopOnErrorLeavesForksUnexplored) {
  EngineOptions opts = defaultOptions();
  opts.stop_on_error = true;
  opts.take_true_first = true;
  Engine engine(opts);
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    // First branch forks; true direction errors immediately.
    if (st.branch(b.eqConst(v, 1))) st.fail("bug");
    // False direction would keep forking — should never be scheduled.
    st.branch(b.eqConst(v, 2));
    st.branch(b.eqConst(v, 3));
  });
  EXPECT_EQ(report.error_paths, 1u);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_GE(report.unexplored_forks, 1u);
  EXPECT_GE(report.partialPaths(), 2u);
}

TEST(Engine, KnownBitsAvoidsSolverOnRedundantBranches) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto instr = st.makeSymbolic("instr", 32);
    st.assume(b.eq(b.extract(instr, 0, 7), b.constant(0x33, 7)));
    // Decoder-style cascade: all of these are decided by known bits.
    EXPECT_TRUE(st.branch(b.eq(b.extract(instr, 0, 7), b.constant(0x33, 7))));
    EXPECT_FALSE(st.branch(b.eq(b.extract(instr, 0, 7), b.constant(0x13, 7))));
    EXPECT_FALSE(st.branch(b.eq(b.extract(instr, 0, 7), b.constant(0x03, 7))));
  });
  EXPECT_EQ(report.completed_paths, 1u);
  EXPECT_GE(report.knownbits_decided, 3u);
  EXPECT_EQ(report.solver_decided, 0u);
}

TEST(Engine, ForkedConstraintsFeedKnownBits) {
  Engine engine(defaultOptions());
  std::uint64_t knownbits_hits = 0;
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 4);
    // This branch forks; afterwards each side knows the field value.
    const bool is5 = st.branch(b.eqConst(v, 5));
    if (is5) {
      EXPECT_TRUE(st.branch(b.eqConst(v, 5)));
      knownbits_hits += st.stats().knownbits_decided;
    }
  });
  EXPECT_EQ(report.completed_paths, 2u);
  EXPECT_GE(knownbits_hits, 1u);
}

TEST(Engine, ConcretizePinsValue) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("addr", 32);
    st.assume(b.ult(v, b.constant(0x100, 32)));
    const std::uint64_t val = st.concretize(v);
    EXPECT_LT(val, 0x100u);
    // After pinning, equality with the value must be definitely true.
    EXPECT_TRUE(st.mustBeTrue(b.eqConst(v, val)));
  });
  EXPECT_EQ(report.completed_paths, 1u);
}

TEST(Engine, InstructionBudgetStopsRun) {
  EngineOptions opts = defaultOptions();
  opts.max_instructions = 10;
  Engine engine(opts);
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    st.countInstruction(4);
    // 256 leaves: far more work than the 10-instruction budget allows.
    for (unsigned i = 0; i < 8; ++i) st.branch(b.bit(v, i));
  });
  EXPECT_TRUE(report.stopped_early);
  EXPECT_GE(report.instructions, 10u);
}

TEST(Engine, MaxPathsBudget) {
  EngineOptions opts = defaultOptions();
  opts.max_paths = 3;
  Engine engine(opts);
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    for (unsigned i = 0; i < 8; ++i) st.branch(b.bit(v, i));
  });
  EXPECT_TRUE(report.stopped_early);
  EXPECT_EQ(report.completed_paths, 3u);
  EXPECT_GE(report.unexplored_forks, 1u);
}

TEST(Engine, SearchersCoverSameLeaves) {
  for (auto searcher : {EngineOptions::Searcher::Dfs,
                        EngineOptions::Searcher::Bfs,
                        EngineOptions::Searcher::Random}) {
    EngineOptions opts = defaultOptions();
    opts.searcher = searcher;
    Engine engine(opts);
    std::multiset<std::uint64_t> leaves;
    auto report = engine.run([&](ExecState& st) {
      auto& b = st.builder();
      auto v = st.makeSymbolic("v", 3);
      std::uint64_t leaf = 0;
      for (unsigned i = 0; i < 3; ++i)
        if (st.branch(b.bit(v, i))) leaf |= 1u << i;
      leaves.insert(leaf);
    });
    EXPECT_EQ(report.completed_paths, 8u) << "searcher " << static_cast<int>(searcher);
    EXPECT_EQ(std::set<std::uint64_t>(leaves.begin(), leaves.end()).size(), 8u);
  }
}

TEST(Engine, ReplayAlignmentWithMixedBranchKinds) {
  // A program whose branch sequence interleaves const-folded, known-bits
  // and solver branches: replay must still enumerate exactly the leaves.
  Engine engine(defaultOptions());
  std::multiset<int> leaves;
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 8);
    int leaf = 0;
    EXPECT_TRUE(st.branch(b.trueExpr()));            // const-folded
    if (st.branch(b.eqConst(v, 7))) leaf |= 1;       // solver fork
    EXPECT_FALSE(st.branch(b.falseExpr()));          // const-folded
    if (leaf & 1) {
      EXPECT_TRUE(st.branch(b.eqConst(v, 7)));       // known-bits decided
    } else if (st.branch(b.ult(v, b.constant(4, 8)))) {  // solver fork
      leaf |= 2;
    }
    leaves.insert(leaf);
  });
  EXPECT_EQ(report.completed_paths, 3u);
  EXPECT_EQ(std::set<int>(leaves.begin(), leaves.end()),
            (std::set<int>{0, 1, 2}));
}

TEST(Engine, TestVectorsForEachCompletedPath) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("sel", 8);
    st.branch(b.ult(v, b.constant(16, 8)));
  });
  EXPECT_EQ(report.completed_paths, 2u);
  EXPECT_EQ(report.test_vectors, 2u);
  // Vectors must actually satisfy the branch direction of their path.
  bool saw_low = false, saw_high = false;
  for (const auto& p : report.paths) {
    ASSERT_TRUE(p.has_test);
    const auto val = p.test.lookup("sel");
    ASSERT_TRUE(val.has_value());
    (*val < 16 ? saw_low : saw_high) = true;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Engine, DecisionBudgetTerminatesPath) {
  EngineOptions opts = defaultOptions();
  opts.max_decisions_per_path = 4;
  opts.max_paths = 40;
  Engine engine(opts);
  auto report = engine.run([&](ExecState& st) {
    auto& b = st.builder();
    auto v = st.makeSymbolic("v", 32);
    for (unsigned i = 0; i < 32; ++i) st.branch(b.bit(v, i));
  });
  EXPECT_GT(report.limited_paths, 0u);
  EXPECT_EQ(report.completed_paths, 0u);
}

TEST(Engine, FinishTerminatesAsCompleted) {
  Engine engine(defaultOptions());
  auto report = engine.run([&](ExecState& st) {
    st.makeSymbolic("v", 8);
    st.finish();
  });
  EXPECT_EQ(report.completed_paths, 1u);
}

}  // namespace
}  // namespace rvsym::symex
