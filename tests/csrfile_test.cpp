// Direct unit tests for the shared CSR file: the implemented-set matrix
// across the three configurations, read/write semantics per register,
// resolve() forking over symbolic addresses, counters, WARL masking and
// trap-state sequencing.
#include <gtest/gtest.h>

#include "expr/builder.hpp"
#include "iss/csrfile.hpp"
#include "rv32/csr.hpp"
#include "symex/engine.hpp"

namespace rvsym::iss {
namespace {

using namespace rv32::csr;
using expr::ExprBuilder;
using expr::ExprRef;

struct CsrFixture : ::testing::Test {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};

  ExprRef word(std::uint32_t v) { return eb.constant(v, 32); }
  std::uint32_t value(const ExprRef& e) {
    EXPECT_TRUE(e->isConstant());
    return static_cast<std::uint32_t>(e->constantValue());
  }
};

// --- Implemented sets per configuration -------------------------------------

TEST_F(CsrFixture, VpImplementsFullSet) {
  CsrFile f(eb, CsrConfig::riscvVp());
  for (std::uint16_t a : {kMstatus, kMie, kMtvec, kMepc, kMcause, kMip,
                          kMscratch, kMcounteren, kCycle, kTime, kInstreth})
    EXPECT_TRUE(f.isImplemented(a)) << a;
  EXPECT_TRUE(f.isImplemented(0xB10));  // mhpmcounter16
  EXPECT_TRUE(f.isImplemented(0x330));  // mhpmevent16
  EXPECT_FALSE(f.isImplemented(0x400));
  EXPECT_FALSE(f.isImplemented(0x105));  // stvec: no S-mode
}

TEST_F(CsrFixture, MicroRv32ImplementsSubset) {
  CsrFile f(eb, CsrConfig::microrv32());
  for (std::uint16_t a : {kMstatus, kMie, kMtvec, kMepc, kMcause, kMip,
                          kMcycle, kMinstret, kMcycleh, kMinstreth})
    EXPECT_TRUE(f.isImplemented(a)) << a;
  for (std::uint16_t a : {kMscratch, kMcounteren, kCycle, kTime, kInstret})
    EXPECT_FALSE(f.isImplemented(a)) << a;
  EXPECT_FALSE(f.isImplemented(0xB10));
}

// --- Read / write semantics ----------------------------------------------------

TEST_F(CsrFixture, ScratchStorageRoundTrip) {
  CsrFile f(eb, CsrConfig::specCorrect());
  EXPECT_FALSE(f.write(kMscratch, word(0x12345678)));
  const auto r = f.read(kMscratch);
  ASSERT_FALSE(r.trap);
  EXPECT_EQ(value(r.value), 0x12345678u);
}

TEST_F(CsrFixture, MstatusWarlMasksToMieMpie) {
  CsrFile f(eb, CsrConfig::specCorrect());
  EXPECT_FALSE(f.write(kMstatus, word(0xFFFFFFFF)));
  const auto r = f.read(kMstatus);
  ASSERT_FALSE(r.trap);
  // Only MIE (bit 3), MPIE (bit 7) stored; MPP pinned to M (bits 12:11).
  EXPECT_EQ(value(r.value), 0x88u | (0x3u << 11));
}

TEST_F(CsrFixture, MtvecMepcMaskLowBits) {
  CsrFile f(eb, CsrConfig::specCorrect());
  f.write(kMtvec, word(0x80001003));
  EXPECT_EQ(value(f.read(kMtvec).value), 0x80001000u);
  f.write(kMepc, word(0x80000002));
  EXPECT_EQ(value(f.read(kMepc).value), 0x80000000u);
}

TEST_F(CsrFixture, MisaIsWarlReadOnlyValue) {
  CsrConfig cfg = CsrConfig::specCorrect();
  CsrFile f(eb, cfg);
  EXPECT_FALSE(f.write(kMisa, word(0)));
  EXPECT_EQ(value(f.read(kMisa).value), cfg.misa);
}

TEST_F(CsrFixture, ReadOnlyWritePolicy) {
  CsrFile spec(eb, CsrConfig::specCorrect());
  EXPECT_TRUE(spec.write(kMarchid, word(1)));
  EXPECT_TRUE(spec.write(kCycle, word(1)));
  CsrFile micro(eb, CsrConfig::microrv32());
  EXPECT_FALSE(micro.write(kMarchid, word(1)));  // authentic missing trap
}

TEST_F(CsrFixture, CounterWritePolicy) {
  CsrFile micro(eb, CsrConfig::microrv32());
  EXPECT_TRUE(micro.write(kMcycle, word(0)));   // authentic trap-on-write
  EXPECT_TRUE(micro.write(kMip, word(0)));
  CsrFile spec(eb, CsrConfig::specCorrect());
  EXPECT_FALSE(spec.write(kMcycle, word(0)));
  EXPECT_FALSE(spec.write(kMip, word(0)));
}

TEST_F(CsrFixture, DelegationReadQuirk) {
  CsrFile vp(eb, CsrConfig::riscvVp());
  EXPECT_TRUE(vp.read(kMedeleg).trap);
  EXPECT_TRUE(vp.read(kMideleg).trap);
  EXPECT_FALSE(vp.write(kMedeleg, word(1)));  // writes still fine
  CsrFile spec(eb, CsrConfig::specCorrect());
  EXPECT_FALSE(spec.read(kMedeleg).trap);
}

TEST_F(CsrFixture, UnimplementedAccessPolicy) {
  CsrFile spec(eb, CsrConfig::specCorrect());
  EXPECT_TRUE(spec.read(CsrFile::kUnimplemented).trap);
  EXPECT_TRUE(spec.write(CsrFile::kUnimplemented, word(1)));
  CsrFile micro(eb, CsrConfig::microrv32());
  const auto r = micro.read(CsrFile::kUnimplemented);
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(value(r.value), 0u);
  EXPECT_FALSE(micro.write(CsrFile::kUnimplemented, word(1)));
}

// --- Counters -------------------------------------------------------------------

TEST_F(CsrFixture, CountersSplitLowHigh) {
  CsrFile f(eb, CsrConfig::specCorrect());
  for (int i = 0; i < 5; ++i) f.tickCycle();
  for (int i = 0; i < 3; ++i) f.tickInstret();
  EXPECT_EQ(value(f.read(kMcycle).value), 5u);
  EXPECT_EQ(value(f.read(kMcycleh).value), 0u);
  EXPECT_EQ(value(f.read(kMinstret).value), 3u);
  // Unprivileged shadows alias the machine counters.
  EXPECT_EQ(value(f.read(kCycle).value), 5u);
  EXPECT_EQ(value(f.read(kTime).value), 5u);
  EXPECT_EQ(value(f.read(kInstret).value), 3u);
}

TEST_F(CsrFixture, CounterHighWordCarries) {
  CsrFile f(eb, CsrConfig::specCorrect());
  f.write(kMcycle, word(0xFFFFFFFF));
  f.tickCycle();
  EXPECT_EQ(value(f.read(kMcycle).value), 0u);
  EXPECT_EQ(value(f.read(kMcycleh).value), 1u);
}

TEST_F(CsrFixture, CounterWritesReplaceHalves) {
  CsrFile f(eb, CsrConfig::specCorrect());
  f.write(kMcycle, word(0x11111111));
  f.write(kMcycleh, word(0x22222222));
  EXPECT_EQ(value(f.read(kMcycle).value), 0x11111111u);
  EXPECT_EQ(value(f.read(kMcycleh).value), 0x22222222u);
}

TEST_F(CsrFixture, HpmStorage) {
  CsrFile f(eb, CsrConfig::specCorrect());
  EXPECT_EQ(value(f.read(0xB10).value), 0u);  // mhpmcounter16 resets to 0
  EXPECT_FALSE(f.write(0xB10, word(77)));
  EXPECT_EQ(value(f.read(0xB10).value), 77u);
  EXPECT_FALSE(f.write(0x330, word(5)));      // mhpmevent16
  EXPECT_EQ(value(f.read(0x330).value), 5u);
}

// --- Trap entry / return ----------------------------------------------------------

TEST_F(CsrFixture, TrapEntrySequence) {
  CsrFile f(eb, CsrConfig::specCorrect());
  f.write(kMtvec, word(0x80002000));
  f.write(kMstatus, word(0x8));  // MIE=1
  const ExprRef target = f.enterTrap(word(0x80000010), 11, word(0));
  EXPECT_EQ(value(target), 0x80002000u);
  EXPECT_EQ(value(f.read(kMepc).value), 0x80000010u);
  EXPECT_EQ(value(f.read(kMcause).value), 11u);
  // MIE cleared, MPIE holds the old MIE.
  const std::uint32_t mstatus = value(f.read(kMstatus).value);
  EXPECT_EQ(mstatus & 0x8u, 0u);
  EXPECT_EQ(mstatus & 0x80u, 0x80u);
  // MRET restores.
  const ExprRef resume = f.doMret();
  EXPECT_EQ(value(resume), 0x80000010u);
  EXPECT_EQ(value(f.read(kMstatus).value) & 0x8u, 0x8u);
}

// --- resolve() over symbolic addresses ----------------------------------------------

TEST_F(CsrFixture, ResolveConstantAddress) {
  CsrFile f(eb, CsrConfig::specCorrect());
  EXPECT_EQ(f.resolve(st, eb.constant(kMstatus, 12)), kMstatus);
  EXPECT_EQ(f.resolve(st, eb.constant(0x400, 12)), CsrFile::kUnimplemented);
}

TEST_F(CsrFixture, ResolveEnumeratesImplementedSet) {
  // Symbolic address: DFS over resolve() must reach every implemented
  // single CSR plus the three ranges plus the unimplemented bucket.
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  symex::Engine engine(opts);
  std::set<std::uint16_t> seen;
  std::uint64_t unimpl = 0;
  const auto report = engine.run([&](symex::ExecState& s) {
    CsrFile f(s.builder(), CsrConfig::specCorrect());
    const ExprRef addr = s.makeSymbolic("csr_addr", 12);
    const std::uint16_t r = f.resolve(s, addr);
    if (r == CsrFile::kUnimplemented)
      ++unimpl;
    else
      seen.insert(r);
  });
  EXPECT_GE(seen.size(), 26u + 3u);  // singles + one per range
  EXPECT_GE(unimpl, 1u);
  EXPECT_EQ(report.error_paths, 0u);
  EXPECT_TRUE(seen.count(kMstatus));
  EXPECT_TRUE(seen.count(kInstreth));
}

TEST_F(CsrFixture, InterruptRequestGating) {
  CsrFile f(eb, CsrConfig::specCorrect());
  const auto request = [&] {
    const ExprRef r = f.interruptRequest(11);
    EXPECT_TRUE(r->isConstant());
    return r->constantValue() != 0;
  };
  EXPECT_FALSE(request());
  f.setInterruptLine(11, true);
  EXPECT_FALSE(request());  // pending but not enabled
  f.write(kMie, word(1u << 11));
  EXPECT_FALSE(request());  // enabled but MIE off
  f.write(kMstatus, word(0x8));
  EXPECT_TRUE(request());
  f.setInterruptLine(11, false);
  EXPECT_FALSE(request());
}

}  // namespace
}  // namespace rvsym::iss
