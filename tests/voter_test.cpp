// Unit tests for the voter: field-by-field comparison semantics over
// concrete and symbolic retirement records, fork behaviour at possible
// divergences, and the guarantee that semantically-equal symbolic
// expressions never produce false mismatches.
#include <gtest/gtest.h>

#include "core/voter.hpp"
#include "expr/builder.hpp"
#include "symex/engine.hpp"

namespace rvsym::core {
namespace {

using expr::ExprBuilder;
using expr::ExprRef;

iss::RetireInfo baseRecord(ExprBuilder& eb) {
  iss::RetireInfo r;
  r.pc = eb.constant(0x80000000, 32);
  r.next_pc = eb.constant(0x80000004, 32);
  r.instr = eb.constant(0x13, 32);
  return r;
}

struct VoterFixture : ::testing::Test {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  Voter voter;
};

TEST_F(VoterFixture, IdenticalRecordsAgree) {
  const iss::RetireInfo a = baseRecord(eb);
  const iss::RetireInfo b = baseRecord(eb);
  EXPECT_FALSE(voter.compare(st, a, b).has_value());
}

TEST_F(VoterFixture, TrapFlagDifferenceIsConcrete) {
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  b.trap = true;
  b.cause = 2;
  const auto m = voter.compare(st, a, b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->field, "trap");
}

TEST_F(VoterFixture, TrapCauseCompared) {
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  a.trap = b.trap = true;
  a.cause = 2;
  b.cause = 4;
  const auto m = voter.compare(st, a, b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->field, "trap_cause");
}

TEST_F(VoterFixture, NextPcConstantDifference) {
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  b.next_pc = eb.constant(0x80000008, 32);
  const auto m = voter.compare(st, a, b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->field, "next_pc");
}

TEST_F(VoterFixture, RdChannelPresenceDifference) {
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  a.rd_index = eb.constant(1, 5);
  a.rd_value = eb.constant(7, 32);
  const auto m = voter.compare(st, a, b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->field, "rd_channel");
}

TEST_F(VoterFixture, MemChannelCompared) {
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  a.mem_valid = b.mem_valid = true;
  a.mem_is_store = b.mem_is_store = true;
  a.mem_size = 4;
  b.mem_size = 2;
  a.mem_addr = b.mem_addr = eb.constant(0x100, 32);
  a.mem_data = b.mem_data = eb.constant(0xAB, 32);
  const auto m = voter.compare(st, a, b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->field, "mem_size");
}

TEST_F(VoterFixture, SemanticallyEqualExpressionsAgree) {
  // x + x vs 2*x: structurally different, semantically identical — the
  // solver must prove them equal, no fork, no mismatch.
  const ExprRef x = eb.variable("x", 32);
  iss::RetireInfo a = baseRecord(eb);
  iss::RetireInfo b = baseRecord(eb);
  a.rd_index = b.rd_index = eb.constant(1, 5);
  a.rd_value = eb.add(x, x);
  b.rd_value = eb.mul(x, eb.constant(2, 32));
  EXPECT_FALSE(voter.compare(st, a, b).has_value());
}

TEST(VoterForking, PossibleDivergenceForksBothWays) {
  // rd values x and 5: equal only when x == 5, so the voter must fork —
  // one mismatch path and one agreeing path.
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  symex::Engine engine(opts);
  std::uint64_t agreed = 0;
  const auto report = engine.run([&](symex::ExecState& s) {
    Voter voter;
    iss::RetireInfo a = baseRecord(s.builder());
    iss::RetireInfo b = baseRecord(s.builder());
    a.rd_index = b.rd_index = s.builder().constant(1, 5);
    a.rd_value = s.makeSymbolic("x", 32);
    b.rd_value = s.builder().constant(5, 32);
    if (auto m = voter.compare(s, a, b)) s.fail(Voter::describe(*m));
    ++agreed;
  });
  EXPECT_EQ(report.error_paths, 1u);
  EXPECT_EQ(report.completed_paths, 1u);
  EXPECT_EQ(agreed, 1u);
  // The agreeing path is constrained to x == 5.
  const symex::PathRecord* ok = nullptr;
  for (const auto& p : report.paths)
    if (p.end == symex::PathEnd::Completed) ok = &p;
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->has_test);
  EXPECT_EQ(ok->test.lookup("x"), std::make_optional<std::uint64_t>(5));
}

TEST(VoterForking, DescribeFormatsFieldAndDetail) {
  const Mismatch m{"rd_value", "detail text"};
  const std::string s = Voter::describe(m);
  EXPECT_NE(s.find("rd_value"), std::string::npos);
  EXPECT_NE(s.find("detail text"), std::string::npos);
}

}  // namespace
}  // namespace rvsym::core
