// Tests for the injected-error registry: every fault E0-E9 must (a) be
// representable, (b) change observable behaviour on a concrete witness
// (covered in rtl_test), and (c) be FOUND by the symbolic co-simulation
// under the Table II configuration — the paper's headline capability.
#include <gtest/gtest.h>

#include "core/cosim.hpp"
#include "core/symmem.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "rv32/instr.hpp"
#include "symex/engine.hpp"

namespace rvsym::fault {
namespace {

using core::CosimConfig;
using core::CoSimulation;

/// The Table II co-simulation base: fixed DUT + spec-correct ISS, CSR
/// (SYSTEM) instruction generation blocked, one injected error applied.
CosimConfig tableTwoConfig(const InjectedError& error, unsigned instr_limit) {
  CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = instr_limit;
  cfg.instr_constraint = CoSimulation::blockSystemInstructions();
  error.apply(cfg);
  return cfg;
}

TEST(Registry, HasTenDistinctErrors) {
  const auto errors = allErrors();
  ASSERT_EQ(errors.size(), 10u);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(errors[i].id, "E" + std::to_string(i));
    EXPECT_NE(errors[i].description[0], '\0');
  }
  EXPECT_EQ(&errorById("E7"), &allErrors()[7]);
  EXPECT_THROW(errorById("E10"), std::out_of_range);
}

TEST(Registry, DecoderFaultsTargetDistinctPatterns) {
  const auto errors = allErrors();
  EXPECT_TRUE(errors[0].isDecoderFault());
  EXPECT_TRUE(errors[1].isDecoderFault());
  EXPECT_TRUE(errors[2].isDecoderFault());
  EXPECT_NE(errors[0].mutant().op, errors[1].mutant().op);
  EXPECT_NE(errors[1].mutant().op, errors[2].mutant().op);
  for (int i = 3; i < 10; ++i)
    EXPECT_FALSE(errors[static_cast<std::size_t>(i)].isDecoderFault());
}

TEST(Registry, EveryErrorIsAnEnumeratedMutant) {
  // The registry names points of the machine-enumerated space — each id
  // must resolve, and the enumeration must contain it.
  const auto space = mut::enumerateSpace();
  for (const InjectedError& e : allErrors()) {
    const mut::Mutant m = e.mutant();
    EXPECT_EQ(m.id(), e.mutant_id);
    bool found = false;
    for (const mut::Mutant& s : space) found |= s.id() == m.id();
    EXPECT_TRUE(found) << e.id << " (" << e.mutant_id
                       << ") not in the enumerated space";
  }
}

TEST(Registry, ApplySetsExactlyOneFault) {
  for (const InjectedError& e : allErrors()) {
    CosimConfig cfg;
    e.apply(cfg);
    const rtl::ExecFaults& f = cfg.faults;
    int set = static_cast<int>(cfg.decode_dont_cares.size() +
                               f.stuck_bits.size() + f.branch_swaps.size() +
                               f.mem_faults.size());
    for (int i = 0; i < rtl::ExecFaults::kNumFlags; ++i)
      set += f.flag(static_cast<rtl::ExecFaults::Flag>(i)) ? 1 : 0;
    EXPECT_EQ(set, 1) << e.id;
  }
}

/// Symbolic hunt for one injected error. Scoped by an opcode constraint
/// to keep unit-test runtimes small; the unguided hunt is exercised by
/// the integration test and the Table II bench.
class SymbolicHunt : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicHunt, FindsInjectedError) {
  const InjectedError& error = allErrors()[static_cast<std::size_t>(GetParam())];
  CosimConfig cfg = tableTwoConfig(error, 1);

  symex::EngineOptions opts;
  opts.stop_on_error = true;
  opts.max_paths = 3000;
  opts.max_seconds = 120;
  symex::Engine engine(opts);
  const auto report = engine.run(cosimFactory(cfg));

  ASSERT_GT(report.error_paths, 0u)
      << error.id << " (" << error.description << ") not found";

  // The witness must involve the targeted instruction.
  const symex::PathRecord* err = report.firstError();
  ASSERT_NE(err, nullptr);
  ASSERT_TRUE(err->has_test);
  const auto word = err->test.lookup(
      core::SymbolicInstrMemory::variableName(0x80000000));
  ASSERT_TRUE(word.has_value());
  const std::uint32_t instr = static_cast<std::uint32_t>(*word);
  const rv32::Decoded d = rv32::decode(instr);
  // E0-E2 witnesses are reserved encodings (Illegal to the spec decoder);
  // E3-E9 witnesses decode to the faulty instruction.
  std::string mnemonic = rv32::opcodeName(d.op);
  for (char& c : mnemonic) c = static_cast<char>(std::toupper(c));
  if (error.isDecoderFault()) {
    EXPECT_EQ(d.op, rv32::Opcode::Illegal)
        << rv32::disassemble(instr);
  } else {
    EXPECT_EQ(mnemonic, error.target) << rv32::disassemble(instr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllErrors, SymbolicHunt, ::testing::Range(0, 10),
                         [](const auto& info) {
                           return "E" + std::to_string(info.param);
                         });

TEST(SymbolicHunt, NoFalsePositivesWithoutFault) {
  // The identical configuration with NO injected fault must be clean.
  CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  cfg.instr_constraint = CoSimulation::blockSystemInstructions();

  symex::EngineOptions opts;
  opts.stop_on_error = true;
  opts.max_paths = 400;
  symex::Engine engine(opts);
  const auto report = engine.run(cosimFactory(cfg));
  EXPECT_EQ(report.error_paths, 0u);
}

}  // namespace
}  // namespace rvsym::fault
