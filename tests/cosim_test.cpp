// Tests for the co-simulation layer: symbolic memories, sliced
// registers, bus glue, the voter, and the central soundness property —
// a bug-free RTL/ISS pair produces NO mismatches for any instruction and
// any register/memory values, while each authentic-bug configuration is
// caught.
#include <gtest/gtest.h>

#include <random>

#include "core/classify.hpp"
#include "core/cosim.hpp"
#include "core/session.hpp"
#include "core/symmem.hpp"
#include "expr/builder.hpp"
#include "rv32/csr.hpp"
#include "rv32/encode.hpp"

namespace rvsym::core {
namespace {

using expr::ExprBuilder;
using expr::ExprRef;
using namespace rv32;

/// Pins the symbolic instruction stream to a fixed program: address ->
/// word, falling back to NOP for unlisted addresses. (The instruction
/// variables stay symbolic; klee_assume fixes their value, which
/// exercises the same machinery as free exploration.)
InstrConstraint pinnedProgram(std::vector<std::uint32_t> words,
                              std::uint32_t base = 0x80000000) {
  return [words = std::move(words), base](symex::ExecState& st,
                                          const ExprRef& instr) {
    // The variable name encodes its address.
    const std::string& name = instr->name();
    const auto addr = static_cast<std::uint32_t>(
        std::strtoul(name.c_str() + name.find('@') + 1, nullptr, 16));
    std::uint32_t word = enc::nop();
    if (addr >= base && (addr - base) / 4 < words.size() &&
        (addr - base) % 4 == 0)
      word = words[(addr - base) / 4];
    st.assume(st.builder().eqConst(instr, word));
  };
}

CosimConfig compatibleConfig() {
  CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  return cfg;
}

symex::EngineReport explore(const CosimConfig& cfg,
                            symex::EngineOptions opts = {}) {
  opts.stop_on_error = false;
  symex::Engine engine(opts);
  return engine.run(cosimFactory(cfg));
}

// --- Symbolic memory units ---------------------------------------------------------

TEST(SymbolicInstrMemory, CachesPerAddress) {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  SymbolicInstrMemory imem;
  const ExprRef a1 = imem.fetch(st, 0x80000000);
  const ExprRef a2 = imem.fetch(st, 0x80000000);
  const ExprRef b = imem.fetch(st, 0x80000004);
  EXPECT_EQ(a1.get(), a2.get()) << "same address must give one instruction";
  EXPECT_NE(a1.get(), b.get());
  EXPECT_EQ(imem.generatedWords(), 2u);
}

TEST(SymbolicInstrMemory, ConstraintApplied) {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  SymbolicInstrMemory imem(CoSimulation::blockSystemInstructions());
  const ExprRef w = imem.fetch(st, 0x80000000);
  // SYSTEM opcodes must now be infeasible on this path.
  EXPECT_TRUE(st.mustBeTrue(eb.ne(eb.extract(w, 0, 7), eb.constant(0x73, 7))));
}

TEST(SymbolicDataMemory, SharedInitPrivateWrites) {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  InitialImage image;
  SymbolicDataMemory a(image);
  SymbolicDataMemory b(image);
  // Identical initial content (same symbolic variable)...
  EXPECT_EQ(a.byteAt(st, 0x100).get(), b.byteAt(st, 0x100).get());
  // ...but writes are private.
  a.setByte(0x100, eb.constant(0xAA, 8));
  EXPECT_NE(a.byteAt(st, 0x100).get(), b.byteAt(st, 0x100).get());
  EXPECT_TRUE(a.byteAt(st, 0x100)->isConstant());
}

TEST(SymbolicDataMemory, StrobedStoreTouchesOnlySelectedLanes) {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  InitialImage image;
  SymbolicDataMemory m(image);
  const ExprRef untouched = m.byteAt(st, 0x102);
  m.storeStrobed(st, 0x100, 0b0011, eb.constant(0xAABBCCDD, 32));
  EXPECT_TRUE(m.byteAt(st, 0x100)->isConstantValue(0xDD));
  EXPECT_TRUE(m.byteAt(st, 0x101)->isConstantValue(0xCC));
  EXPECT_EQ(m.byteAt(st, 0x102).get(), untouched.get());
}

TEST(SymbolicDataMemory, LittleEndianWordAssembly) {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  InitialImage image;
  SymbolicDataMemory m(image);
  for (unsigned i = 0; i < 4; ++i)
    m.setByte(0x200 + i, eb.constant(0x11 * (i + 1), 8));
  const ExprRef w = m.loadWord(st, eb.constant(0x200, 32));
  ASSERT_TRUE(w->isConstant());
  EXPECT_EQ(w->constantValue(), 0x44332211u);
}

// --- Lockstep soundness: no false mismatches ------------------------------------------

TEST(Lockstep, PinnedAluProgramAgrees) {
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 3;
  cfg.instr_constraint = pinnedProgram({
      enc::addi(1, 0, 42),
      enc::slli(2, 1, 4),
      enc::sub(3, 2, 1),
  });
  const auto report = explore(cfg);
  EXPECT_EQ(report.error_paths, 0u);
  EXPECT_GE(report.completed_paths, 1u);
}

TEST(Lockstep, SymbolicRegistersStillAgree) {
  // With symbolic register content the agreement must hold for ALL
  // values — a much stronger check than any concrete run.
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 1;
  cfg.num_symbolic_regs = 2;
  cfg.instr_constraint = pinnedProgram({enc::add(3, 1, 2)});
  const auto report = explore(cfg);
  EXPECT_EQ(report.error_paths, 0u);
}

class LockstepRandomInstr : public ::testing::TestWithParam<int> {};

TEST_P(LockstepRandomInstr, FixedPairNeverMismatches) {
  // Random single instructions from the whole RV32I+Zicsr space,
  // executed over fully symbolic x1/x2 and symbolic memory.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 6; ++round) {
    std::uint32_t word = rng();
    // Bias half the rounds towards valid encodings.
    if (round % 2 == 0) {
      const auto table = decodeTable();
      const DecodePattern& p = table[rng() % table.size()];
      word = (word & ~p.mask) | p.match;
    }
    CosimConfig cfg = compatibleConfig();
    cfg.instr_limit = 1;
    cfg.instr_constraint = pinnedProgram({word});
    const auto report = explore(cfg);
    EXPECT_EQ(report.error_paths, 0u)
        << "false mismatch for " << disassemble(word) << " (0x" << std::hex
        << word << ")";
    EXPECT_GE(report.totalPaths(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockstepRandomInstr, ::testing::Range(0, 5));

TEST(Lockstep, FreeExplorationOfFixedPairIsClean) {
  // Unconstrained symbolic instruction on the fixed pair: every explored
  // path must agree (bounded sweep).
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 1;
  symex::EngineOptions opts;
  opts.max_paths = 150;
  const auto report = explore(cfg, opts);
  EXPECT_EQ(report.error_paths, 0u);
  EXPECT_GE(report.completed_paths, 50u);
}

// --- Authentic-bug detection -----------------------------------------------------------

TEST(Detection, MisalignedLoadMismatch) {
  CosimConfig cfg;  // authentic RTL + authentic ISS
  cfg.instr_limit = 1;
  cfg.instr_constraint = CoSimulation::onlyMajorOpcode(0x03);  // loads
  symex::EngineOptions opts;
  opts.max_paths = 200;
  const auto report = explore(cfg, opts);
  EXPECT_GT(report.error_paths, 0u);
  const auto findings = classifyReport(report);
  bool found_alignment = false;
  for (const Finding& f : findings)
    if (f.description == "Missing alignment check") found_alignment = true;
  EXPECT_TRUE(found_alignment);
}

TEST(Detection, WfiMismatch) {
  CosimConfig cfg;
  cfg.instr_limit = 1;
  cfg.instr_constraint = pinnedProgram({enc::wfi()});
  const auto report = explore(cfg);
  ASSERT_GT(report.error_paths, 0u);
  const auto findings = classifyReport(report);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].description, "Missing WFI instruction");
  EXPECT_EQ(findings[0].r_class, "E");
}

TEST(Detection, VpDelegationReadBug) {
  CosimConfig cfg;
  cfg.instr_limit = 1;
  cfg.instr_constraint = pinnedProgram({enc::csrrw(1, csr::kMedeleg, 0)});
  const auto report = explore(cfg);
  ASSERT_GT(report.error_paths, 0u);
  const auto findings = classifyReport(report);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].r_class, "E*");
}

TEST(Detection, MscratchNeedsTwoInstructions) {
  // Writing mscratch is silently ignored by the RTL core; the divergence
  // becomes observable only at the read-back — instruction limit 2.
  CosimConfig cfg;
  cfg.instr_limit = 2;
  cfg.instr_constraint = pinnedProgram({
      enc::csrrw(0, csr::kMscratch, 1),   // write symbolic x1
      enc::csrrs(2, csr::kMscratch, 0),   // read back
  });
  const auto report = explore(cfg);
  ASSERT_GT(report.error_paths, 0u);
  const auto findings = classifyReport(report);
  ASSERT_GE(findings.size(), 1u);
  EXPECT_EQ(findings[0].subject, "mscratch");
  EXPECT_EQ(findings[0].description, "unimpl. Privileged CSR");

  // At instruction limit 1 the same write is NOT observable.
  CosimConfig cfg1 = cfg;
  cfg1.instr_limit = 1;
  cfg1.instr_constraint = pinnedProgram({enc::csrrw(0, csr::kMscratch, 1)});
  const auto report1 = explore(cfg1);
  EXPECT_EQ(report1.error_paths, 0u);
}

TEST(Detection, ErrorPathProvidesConcreteReproducer) {
  CosimConfig cfg;
  cfg.instr_limit = 1;
  cfg.instr_constraint = CoSimulation::onlyMajorOpcode(0x23);  // stores
  symex::EngineOptions opts;
  opts.max_paths = 120;
  const auto report = explore(cfg, opts);
  ASSERT_GT(report.error_paths, 0u);
  const symex::PathRecord* err = report.firstError();
  ASSERT_NE(err, nullptr);
  ASSERT_TRUE(err->has_test);
  const auto word =
      err->test.lookup(SymbolicInstrMemory::variableName(0x80000000));
  ASSERT_TRUE(word.has_value());
  const Decoded d = decode(static_cast<std::uint32_t>(*word));
  EXPECT_TRUE(isStore(d.op)) << disassemble(static_cast<std::uint32_t>(*word));
}

// --- Sliced symbolic registers ------------------------------------------------------------

TEST(SlicedRegisters, SliceSizeControlsStateSpace) {
  // More symbolic registers -> at least as many explored paths for the
  // same budget-free exploration of a branch instruction.
  std::uint64_t paths_by_slice[2] = {0, 0};
  const unsigned slices[2] = {0, 2};
  for (int i = 0; i < 2; ++i) {
    CosimConfig cfg = compatibleConfig();
    cfg.instr_limit = 1;
    cfg.num_symbolic_regs = slices[i];
    cfg.instr_constraint = pinnedProgram({enc::beq(1, 2, 8)});
    const auto report = explore(cfg);
    paths_by_slice[i] = report.totalPaths();
  }
  // With concrete (zero) registers BEQ x1,x2 is decided; with symbolic
  // registers both directions fork.
  EXPECT_LT(paths_by_slice[0], paths_by_slice[1]);
}

TEST(SlicedRegisters, X0NeverSymbolic) {
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 1;
  cfg.num_symbolic_regs = 31;  // even a full slice must leave x0 alone
  cfg.instr_constraint = pinnedProgram({enc::add(3, 0, 0)});
  const auto report = explore(cfg);
  EXPECT_EQ(report.error_paths, 0u);
}

// --- Execution controller ---------------------------------------------------------------------

TEST(ExecutionController, InstructionLimitBoundsPathLength) {
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 2;
  cfg.instr_constraint = pinnedProgram({enc::nop(), enc::nop(), enc::nop()});
  const auto report = explore(cfg);
  ASSERT_EQ(report.completed_paths, 1u);
  EXPECT_EQ(report.paths[0].instructions, 2u);
}

TEST(ExecutionController, CycleLimitTerminatesPath) {
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 100;
  cfg.cycle_limit = 10;  // too few cycles to retire 100 instructions
  cfg.instr_constraint = pinnedProgram({enc::nop()});
  const auto report = explore(cfg);
  EXPECT_EQ(report.completed_paths, 1u);
  EXPECT_LT(report.paths[0].instructions, 5u);
}

// --- Bus wait states -----------------------------------------------------------------------

TEST(BusWaitStates, LockstepHoldsUnderSlowBuses) {
  for (unsigned waits : {1u, 3u}) {
    CosimConfig cfg = compatibleConfig();
    cfg.instr_limit = 2;
    cfg.bus_wait_states = waits;
    symex::EngineOptions opts;
    opts.max_paths = 120;
    const auto report = explore(cfg, opts);
    EXPECT_EQ(report.error_paths, 0u) << waits << " wait states";
    EXPECT_GE(report.completed_paths, 20u);
  }
}

TEST(BusWaitStates, StretchCyclesNotSemantics) {
  // The same pinned program must retire identical results with and
  // without wait states; only the cycle budget differs.
  for (unsigned waits : {0u, 2u}) {
    CosimConfig cfg = compatibleConfig();
    cfg.instr_limit = 3;
    cfg.bus_wait_states = waits;
    cfg.instr_constraint = pinnedProgram({
        enc::addi(1, 0, 42),
        enc::sw(1, 0, 0x100),
        enc::lw(2, 0, 0x100),
    });
    const auto report = explore(cfg);
    EXPECT_EQ(report.error_paths, 0u) << waits;
    ASSERT_GE(report.completed_paths, 1u);
    EXPECT_EQ(report.paths[0].instructions, 3u) << waits;
  }
}

TEST(BusWaitStates, FaultsStillFoundOnSlowBuses) {
  CosimConfig cfg = compatibleConfig();
  cfg.instr_limit = 1;
  cfg.bus_wait_states = 2;
  cfg.instr_constraint = CoSimulation::onlyMajorOpcode(0x03);  // loads
  CosimConfig buggy = cfg;
  buggy.rtl.faults.mem_faults.push_back(
      {rv32::Opcode::Lb, rtl::MemFaultKind::SignFlip});  // E8
  symex::EngineOptions opts;
  opts.max_paths = 400;
  const auto report = explore(buggy, opts);
  EXPECT_GT(report.error_paths, 0u);
}

// --- Mismatch message plumbing ----------------------------------------------------------------

TEST(MismatchMessage, RoundTrips) {
  const Mismatch m{"rd_value", "destination register value differs"};
  const std::string msg = formatMismatchMessage(m, 0x80000004);
  std::string field;
  std::uint32_t pc = 0;
  ASSERT_TRUE(parseMismatchMessage(msg, field, pc));
  EXPECT_EQ(field, "rd_value");
  EXPECT_EQ(pc, 0x80000004u);
}

}  // namespace
}  // namespace rvsym::core
