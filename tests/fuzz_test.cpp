// Tests for the random-testing baseline: generation policy, determinism,
// absence of false positives on the fixed pair, detection of "broad"
// faults, and the expected blindness to single-value corner cases.
#include <gtest/gtest.h>

#include <set>

#include "fault/faults.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/hybrid.hpp"
#include "rv32/instr.hpp"

namespace rvsym::fuzz {
namespace {

core::CosimConfig fixedPair() {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  return cfg;
}

TEST(RandomImage, DeterministicPerSeedAndAddress) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  RandomImage a(42), b(42), c(43);
  const auto byte = [&](RandomImage& img, std::uint32_t addr) {
    const expr::ExprRef e = img.byteAt(st, addr);
    EXPECT_TRUE(e->isConstant());
    return e->constantValue();
  };
  EXPECT_EQ(byte(a, 0x100), byte(b, 0x100));
  EXPECT_EQ(byte(a, 0x100), byte(a, 0x100));
  // Different seeds / addresses give (overwhelmingly) different content.
  int diff = 0;
  for (std::uint32_t i = 0; i < 64; ++i)
    if (byte(a, i) != byte(c, i)) ++diff;
  EXPECT_GT(diff, 32);
}

TEST(Generation, RespectsSystemBlock) {
  FuzzOptions opts;
  opts.block_system = true;
  std::uint64_t rng = 12345;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t w = CosimFuzzer::randomInstruction(rng, opts);
    EXPECT_NE(w & 0x7F, 0x73u);
  }
}

TEST(Generation, ValidBiasProducesDecodableWords) {
  FuzzOptions opts;
  opts.valid_bias_percent = 100;
  std::uint64_t rng = 999;
  int decodable = 0;
  std::set<rv32::Opcode> seen;
  for (int i = 0; i < 3000; ++i) {
    const std::uint32_t w = CosimFuzzer::randomInstruction(rng, opts);
    const rv32::Decoded d = rv32::decode(w);
    if (d.op != rv32::Opcode::Illegal) {
      ++decodable;
      seen.insert(d.op);
    }
  }
  EXPECT_GT(decodable, 2800);  // pattern bits force a valid encoding
  EXPECT_GT(seen.size(), 35u); // and the sweep covers most opcodes
}

TEST(Fuzzer, NoFalsePositivesOnFixedPair) {
  FuzzOptions opts;
  opts.max_tests = 3000;
  opts.max_seconds = 30;
  CosimFuzzer fuzzer;
  const FuzzReport r = fuzzer.run(fixedPair(), opts);
  EXPECT_FALSE(r.found) << r.mismatch_message;
  EXPECT_EQ(r.tests, 3000u);
  EXPECT_GT(r.instructions, 0u);
}

TEST(Fuzzer, FindsBroadFault) {
  core::CosimConfig cfg = fixedPair();
  fault::errorById("E3").apply(cfg);  // ADDI stuck bit: easy for random
  FuzzOptions opts;
  opts.max_tests = 50000;
  opts.max_seconds = 30;
  CosimFuzzer fuzzer;
  const FuzzReport r = fuzzer.run(cfg, opts);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(rv32::decode(r.witness_instr).op, rv32::Opcode::Addi)
      << rv32::disassemble(r.witness_instr);
}

TEST(Fuzzer, MissesCornerCaseWithinBudget) {
  // X0 only triggers for rs2 == 0xCAFEBABE — a 1-in-2^32 event per ADD.
  core::CosimConfig cfg = fixedPair();
  fault::errorById("X0").apply(cfg);
  FuzzOptions opts;
  opts.max_tests = 20000;
  opts.max_seconds = 20;
  CosimFuzzer fuzzer;
  const FuzzReport r = fuzzer.run(cfg, opts);
  EXPECT_FALSE(r.found) << "a 20k-test budget hitting a 1-in-2^32 value "
                           "would be astonishing";
}

TEST(Fuzzer, DeterministicForFixedSeed) {
  core::CosimConfig cfg = fixedPair();
  fault::errorById("E3").apply(cfg);
  FuzzOptions opts;
  opts.max_tests = 50000;
  opts.max_seconds = 30;
  opts.seed = 77;
  CosimFuzzer fuzzer;
  const FuzzReport a = fuzzer.run(cfg, opts);
  const FuzzReport b = fuzzer.run(cfg, opts);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.witness_instr, b.witness_instr);
}

TEST(Fuzzer, InstrLimitTwoRunsPrograms) {
  FuzzOptions opts;
  opts.max_tests = 200;
  opts.instr_limit = 2;
  CosimFuzzer fuzzer;
  const FuzzReport r = fuzzer.run(fixedPair(), opts);
  EXPECT_FALSE(r.found);
  // Most tests retire two instructions (some trap on the first).
  EXPECT_GT(r.instructions, r.tests);
}

TEST(Hybrid, BroadFaultFoundByFuzzPhase) {
  core::CosimConfig cfg = fixedPair();
  fault::errorById("E3").apply(cfg);
  HybridOptions opts;
  opts.fuzz.max_tests = 50000;
  const HybridReport r = runHybrid(cfg, opts);
  EXPECT_EQ(r.found_by, HybridReport::FoundBy::Fuzzing);
  EXPECT_EQ(r.symex_paths, 0u) << "phase 2 must not run";
}

TEST(Hybrid, CornerCaseFallsThroughToSymbolic) {
  core::CosimConfig cfg = fixedPair();
  fault::errorById("X0").apply(cfg);
  HybridOptions opts;
  opts.fuzz.max_tests = 5000;
  opts.fuzz.max_seconds = 5;
  const HybridReport r = runHybrid(cfg, opts);
  EXPECT_EQ(r.found_by, HybridReport::FoundBy::Symbolic);
  EXPECT_GT(r.fuzz_tests, 0u);
  EXPECT_GT(r.symex_paths, 0u);
}

TEST(Hybrid, CleanDutFindsNothing) {
  HybridOptions opts;
  opts.fuzz.max_tests = 2000;
  opts.symex.max_paths = 150;
  opts.symex.max_seconds = 30;
  const HybridReport r = runHybrid(fixedPair(), opts);
  EXPECT_FALSE(r.found());
  EXPECT_GT(r.totalSeconds(), 0.0);
}

}  // namespace
}  // namespace rvsym::fuzz
