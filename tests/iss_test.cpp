// Golden-model tests for the reference ISS: per-instruction semantics,
// alignment traps, CSR matrix (including the authentic VP quirks),
// counters and trap handling. Concrete programs run through the same
// symbolic machinery (all values fold to constants).
#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/symmem.hpp"
#include "expr/builder.hpp"
#include "iss/iss.hpp"
#include "rv32/csr.hpp"
#include "rv32/encode.hpp"

namespace rvsym::iss {
namespace {

using expr::ExprBuilder;
using expr::ExprRef;
using namespace rv32;

constexpr std::uint32_t kResetPc = 0x80000000;

/// Concrete program memory.
class ProgramMemory final : public InstrSourceIf {
 public:
  void load(std::uint32_t base, const std::vector<std::uint32_t>& words) {
    for (std::size_t i = 0; i < words.size(); ++i)
      words_[base + 4 * static_cast<std::uint32_t>(i)] = words[i];
  }
  ExprRef fetch(symex::ExecState& st, std::uint32_t addr) override {
    auto it = words_.find(addr);
    const std::uint32_t word = it == words_.end() ? 0 : it->second;
    return st.builder().constant(word, 32);
  }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> words_;
};

struct IssFixture : ::testing::Test {
  ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  ProgramMemory imem;
  core::InitialImage image;
  core::SymbolicDataMemory dmem{image};

  std::unique_ptr<Iss> iss;

  void makeIss(IssConfig cfg = {}) {
    iss = std::make_unique<Iss>(eb, imem, dmem, cfg);
  }

  void setReg(unsigned i, std::uint32_t v) {
    iss->regs().set(eb, i, eb.constant(v, 32));
  }
  std::uint32_t reg(unsigned i) {
    const ExprRef& e = iss->regs().get(i);
    EXPECT_TRUE(e->isConstant());
    return static_cast<std::uint32_t>(e->constantValue());
  }
  std::uint32_t pcValue() {
    EXPECT_TRUE(iss->pc()->isConstant());
    return static_cast<std::uint32_t>(iss->pc()->constantValue());
  }
  /// Runs one instruction placed at the current PC.
  RetireInfo run1(std::uint32_t word) {
    imem.load(pcValue(), {word});
    return iss->step(st);
  }
  void setMemByte(std::uint32_t addr, std::uint8_t v) {
    dmem.setByte(addr, eb.constant(v, 8));
  }
};

// --- ALU golden cases (parameterized) ----------------------------------------

struct AluCase {
  const char* name;
  std::uint32_t word;       // uses rs1=x1, rs2=x2, rd=x3
  std::uint32_t x1, x2;
  std::uint32_t expected;   // x3 after execution
};

// Without a printer gtest shows the raw bytes of the case, `name`'s
// address included, in the listed test names; that address moves with
// every load of the binary, so the listed names would too.
void PrintTo(const AluCase& c, std::ostream* os) { *os << c.name; }

class AluGolden : public IssFixture,
                  public ::testing::WithParamInterface<AluCase> {};

TEST_P(AluGolden, ComputesExpected) {
  const AluCase& c = GetParam();
  makeIss();
  setReg(1, c.x1);
  setReg(2, c.x2);
  const RetireInfo r = run1(c.word);
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(reg(3), c.expected);
  EXPECT_EQ(pcValue(), kResetPc + 4);
}

INSTANTIATE_TEST_SUITE_P(
    Rv32iAlu, AluGolden,
    ::testing::Values(
        AluCase{"add", enc::add(3, 1, 2), 5, 7, 12},
        AluCase{"add_wrap", enc::add(3, 1, 2), 0xFFFFFFFF, 2, 1},
        AluCase{"sub", enc::sub(3, 1, 2), 5, 7, 0xFFFFFFFE},
        AluCase{"sll", enc::sll(3, 1, 2), 1, 35, 8},  // amount mod 32
        AluCase{"slt_true", enc::slt(3, 1, 2), 0xFFFFFFFF, 0, 1},
        AluCase{"slt_false", enc::slt(3, 1, 2), 0, 0xFFFFFFFF, 0},
        AluCase{"sltu_true", enc::sltu(3, 1, 2), 0, 0xFFFFFFFF, 1},
        AluCase{"xor", enc::xor_(3, 1, 2), 0xFF00FF00, 0x0F0F0F0F, 0xF00FF00F},
        AluCase{"srl", enc::srl(3, 1, 2), 0x80000000, 31, 1},
        AluCase{"sra", enc::sra(3, 1, 2), 0x80000000, 31, 0xFFFFFFFF},
        AluCase{"or", enc::or_(3, 1, 2), 0xF0, 0x0F, 0xFF},
        AluCase{"and", enc::and_(3, 1, 2), 0xFF, 0x0F, 0x0F},
        AluCase{"addi", enc::addi(3, 1, -5), 3, 0, 0xFFFFFFFE},
        AluCase{"slti", enc::slti(3, 1, 1), 0xFFFFFFFF, 0, 1},
        AluCase{"sltiu", enc::sltiu(3, 1, 1), 0xFFFFFFFF, 0, 0},
        AluCase{"xori", enc::xori(3, 1, -1), 0x12345678, 0, 0xEDCBA987},
        AluCase{"ori", enc::ori(3, 1, 0x70), 0x07, 0, 0x77},
        AluCase{"andi", enc::andi(3, 1, 0x0F), 0xFF, 0, 0x0F},
        AluCase{"slli", enc::slli(3, 1, 4), 0x1, 0, 0x10},
        AluCase{"srli", enc::srli(3, 1, 4), 0x80000000, 0, 0x08000000},
        AluCase{"srai", enc::srai(3, 1, 4), 0x80000000, 0, 0xF8000000}),
    [](const auto& info) { return std::string(info.param.name); });

// --- Control flow ---------------------------------------------------------------

TEST_F(IssFixture, LuiAuipc) {
  makeIss();
  RetireInfo r = run1(enc::lui(1, 0xABCDE000));
  EXPECT_EQ(reg(1), 0xABCDE000u);
  r = run1(enc::auipc(2, 0x1000));
  EXPECT_EQ(reg(2), kResetPc + 4 + 0x1000);
}

TEST_F(IssFixture, JalLinksAndJumps) {
  makeIss();
  const RetireInfo r = run1(enc::jal(1, 16));
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(reg(1), kResetPc + 4);
  EXPECT_EQ(pcValue(), kResetPc + 16);
}

TEST_F(IssFixture, JalrClearsBit0) {
  makeIss();
  setReg(2, kResetPc + 101);  // bit 0 set; must be cleared
  const RetireInfo r = run1(enc::jalr(1, 2, 0));
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(pcValue(), kResetPc + 100);
  EXPECT_EQ(reg(1), kResetPc + 4);
}

TEST_F(IssFixture, JalMisalignedTargetTraps) {
  makeIss();
  const RetireInfo r = run1(enc::jal(1, 6));  // target & 3 == 2
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::MisalignedFetch));
  EXPECT_EQ(reg(1), 0u);  // link register not written on trap
}

TEST_F(IssFixture, BranchTakenAndNotTaken) {
  makeIss();
  setReg(1, 5);
  setReg(2, 5);
  run1(enc::beq(1, 2, 12));
  EXPECT_EQ(pcValue(), kResetPc + 12);
  run1(enc::bne(1, 2, 12));
  EXPECT_EQ(pcValue(), kResetPc + 16);  // not taken
  setReg(3, 0xFFFFFFFF);                // -1
  setReg(4, 1);
  run1(enc::blt(3, 4, 8));              // -1 < 1 signed: taken
  EXPECT_EQ(pcValue(), kResetPc + 24);
  run1(enc::bltu(3, 4, 8));             // 0xFFFFFFFF < 1 unsigned: not taken
  EXPECT_EQ(pcValue(), kResetPc + 28);
  run1(enc::bgeu(3, 4, 8));             // taken
  EXPECT_EQ(pcValue(), kResetPc + 36);
}

// --- Memory ----------------------------------------------------------------------

TEST_F(IssFixture, LoadSignAndZeroExtension) {
  makeIss();
  setMemByte(0x100, 0x80);
  setMemByte(0x101, 0xFF);
  setReg(1, 0x100);

  run1(enc::lb(3, 1, 0));
  EXPECT_EQ(reg(3), 0xFFFFFF80u);
  run1(enc::lbu(3, 1, 0));
  EXPECT_EQ(reg(3), 0x80u);
  run1(enc::lh(3, 1, 0));
  EXPECT_EQ(reg(3), 0xFFFF80u | 0xFF000000u);  // 0xFFFF FF80
  run1(enc::lhu(3, 1, 0));
  EXPECT_EQ(reg(3), 0xFF80u);
}

TEST_F(IssFixture, WordRoundTripLittleEndian) {
  makeIss();
  setReg(1, 0x200);
  setReg(2, 0xDEADBEEF);
  RetireInfo r = run1(enc::sw(2, 1, 0));
  EXPECT_TRUE(r.mem_valid);
  EXPECT_TRUE(r.mem_is_store);
  EXPECT_EQ(r.mem_size, 4u);
  run1(enc::lw(3, 1, 0));
  EXPECT_EQ(reg(3), 0xDEADBEEFu);
  // Byte order: lowest byte at lowest address.
  run1(enc::lbu(4, 1, 0));
  EXPECT_EQ(reg(4), 0xEFu);
  run1(enc::lbu(4, 1, 3));
  EXPECT_EQ(reg(4), 0xDEu);
}

TEST_F(IssFixture, MisalignedAccessesTrap) {
  makeIss();
  setReg(1, 0x101);
  RetireInfo r = run1(enc::lw(3, 1, 0));
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::MisalignedLoad));
  r = run1(enc::lh(3, 1, 0));
  EXPECT_TRUE(r.trap);
  r = run1(enc::sh(2, 1, 0));
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::MisalignedStore));
  // Byte accesses never trap.
  r = run1(enc::lb(3, 1, 0));
  EXPECT_FALSE(r.trap);
}

TEST_F(IssFixture, MisalignedCheckCanBeDisabled) {
  IssConfig cfg;
  cfg.trap_misaligned = false;
  makeIss(cfg);
  setReg(1, 0x101);
  setMemByte(0x101, 0x34);
  setMemByte(0x102, 0x12);
  const RetireInfo r = run1(enc::lh(3, 1, 0));
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(reg(3), 0x1234u);
}

// --- Traps and machine mode ----------------------------------------------------------

TEST_F(IssFixture, EcallTrapsAndMretReturns) {
  makeIss();
  // Set mtvec to a handler address.
  setReg(1, 0x80001000);
  run1(enc::csrrw(0, csr::kMtvec, 1));
  const RetireInfo r = run1(enc::ecall());
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::EcallFromM));
  EXPECT_EQ(pcValue(), 0x80001000u);
  // mepc holds the faulting PC; mret returns there.
  run1(enc::csrrs(5, csr::kMepc, 0));
  EXPECT_EQ(reg(5), kResetPc + 4);
  run1(enc::mret());
  EXPECT_EQ(pcValue(), kResetPc + 4);
}

TEST_F(IssFixture, IllegalInstructionTraps) {
  makeIss();
  const RetireInfo r = run1(0xFFFFFFFF);
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::IllegalInstr));
}

TEST_F(IssFixture, WfiIsNop) {
  makeIss();
  const RetireInfo r = run1(enc::wfi());
  EXPECT_FALSE(r.trap);
  EXPECT_EQ(pcValue(), kResetPc + 4);
}

TEST_F(IssFixture, FenceIsNop) {
  makeIss();
  const RetireInfo r = run1(enc::fence());
  EXPECT_FALSE(r.trap);
}

// --- CSR matrix ----------------------------------------------------------------------

TEST_F(IssFixture, CsrReadWriteSetClear) {
  makeIss();
  setReg(1, 0xF0);
  run1(enc::csrrw(2, csr::kMscratch, 1));  // mscratch = 0xF0, x2 = 0
  EXPECT_EQ(reg(2), 0u);
  setReg(1, 0x0F);
  run1(enc::csrrs(2, csr::kMscratch, 1));  // x2 = 0xF0, mscratch |= 0x0F
  EXPECT_EQ(reg(2), 0xF0u);
  setReg(1, 0xF0);
  run1(enc::csrrc(2, csr::kMscratch, 1));  // x2 = 0xFF, mscratch &= ~0xF0
  EXPECT_EQ(reg(2), 0xFFu);
  run1(enc::csrrs(2, csr::kMscratch, 0));  // read only
  EXPECT_EQ(reg(2), 0x0Fu);
}

TEST_F(IssFixture, CsrImmediateVariants) {
  makeIss();
  run1(enc::csrrwi(0, csr::kMscratch, 21));
  run1(enc::csrrsi(1, csr::kMscratch, 0));
  EXPECT_EQ(reg(1), 21u);
  run1(enc::csrrci(0, csr::kMscratch, 1));
  run1(enc::csrrsi(1, csr::kMscratch, 0));
  EXPECT_EQ(reg(1), 20u);
}

TEST_F(IssFixture, UnimplementedCsrTraps) {
  makeIss();
  const RetireInfo r = run1(enc::csrrwi(0, 0x400, 0));
  EXPECT_TRUE(r.trap);
  EXPECT_EQ(r.cause, static_cast<std::uint32_t>(Cause::IllegalInstr));
}

TEST_F(IssFixture, ReadOnlyCsrWriteTraps) {
  makeIss();
  RetireInfo r = run1(enc::csrrw(0, csr::kMarchid, 0));
  EXPECT_TRUE(r.trap);
  r = run1(enc::csrrs(1, csr::kMhartid, 2));  // rs1 != x0: write attempt
  EXPECT_TRUE(r.trap);
  // Read-only CSR read is fine.
  r = run1(enc::csrrs(1, csr::kMhartid, 0));
  EXPECT_FALSE(r.trap);
}

TEST_F(IssFixture, VpQuirkTrapsOnDelegationRead) {
  makeIss();  // riscvVp config: quirks active
  RetireInfo r = run1(enc::csrrw(1, csr::kMedeleg, 0));  // rd!=0: read
  EXPECT_TRUE(r.trap);
  r = run1(enc::csrrwi(1, csr::kMideleg, 0));
  EXPECT_TRUE(r.trap);
  // CSRRW with rd=x0 skips the read and therefore does NOT trip the bug.
  r = run1(enc::csrrw(0, csr::kMedeleg, 2));
  EXPECT_FALSE(r.trap);
}

TEST_F(IssFixture, SpecCorrectConfigHasNoQuirks) {
  IssConfig cfg;
  cfg.csr = CsrConfig::specCorrect();
  makeIss(cfg);
  const RetireInfo r = run1(enc::csrrw(1, csr::kMedeleg, 0));
  EXPECT_FALSE(r.trap);
}

TEST_F(IssFixture, CountersAdvancePerInstruction) {
  makeIss();
  run1(enc::nop());
  run1(enc::nop());
  run1(enc::nop());
  // Abstract ISS timing: mcycle == minstret == instructions retired.
  run1(enc::csrrs(1, csr::kMcycle, 0));
  EXPECT_EQ(reg(1), 3u);
  run1(enc::csrrs(1, csr::kMinstret, 0));
  EXPECT_EQ(reg(1), 4u);
  // Unprivileged shadows mirror the machine counters.
  run1(enc::csrrs(1, csr::kCycle, 0));
  EXPECT_EQ(reg(1), 5u);
  run1(enc::csrrs(1, csr::kInstreth, 0));
  EXPECT_EQ(reg(1), 0u);
}

TEST_F(IssFixture, TrappedInstructionsDoNotRetire) {
  makeIss();
  run1(0xFFFFFFFF);  // illegal: traps
  iss->setPc(eb.constant(kResetPc + 0x40, 32));
  run1(enc::csrrs(1, csr::kMinstret, 0));
  EXPECT_EQ(reg(1), 0u);  // nothing retired yet
  run1(enc::csrrs(1, csr::kMcycle, 0));
  EXPECT_EQ(reg(1), 2u);  // but cycles advanced (trap + csrrs)
}

TEST_F(IssFixture, CounterWritesArePreserved) {
  makeIss();
  setReg(1, 1000);
  run1(enc::csrrw(0, csr::kMinstret, 1));
  run1(enc::csrrs(2, csr::kMinstret, 0));
  EXPECT_EQ(reg(2), 1001u);  // the write retired, advancing by one
}

TEST_F(IssFixture, MstatusTrapStack) {
  makeIss();
  // Enable MIE.
  setReg(1, 0x8);
  run1(enc::csrrw(0, csr::kMstatus, 1));
  run1(enc::ecall());
  // After trap: MIE=0, MPIE=1.
  run1(enc::csrrs(2, csr::kMstatus, 0));
  EXPECT_EQ(reg(2) & 0x8u, 0u);
  EXPECT_EQ(reg(2) & 0x80u, 0x80u);
  run1(enc::mret());
  // After mret: MIE restored.
  run1(enc::csrrs(2, csr::kMstatus, 0));
  EXPECT_EQ(reg(2) & 0x8u, 0x8u);
}

TEST_F(IssFixture, X0StaysZero) {
  makeIss();
  setReg(1, 42);
  run1(enc::add(0, 1, 1));
  EXPECT_EQ(reg(0), 0u);
  const RetireInfo r = run1(enc::addi(0, 1, 1));
  EXPECT_EQ(reg(0), 0u);
  // RVFI rd channel is normalized to zero for x0.
  ASSERT_TRUE(r.rd_value != nullptr);
  EXPECT_TRUE(r.rd_value->isZero());
}

// --- Concrete vs symbolic pipeline agreement (property) ------------------------

TEST(ConcreteVsSymbolic, PinnedSymbolicMatchesConcreteExecution) {
  // Run random valid instructions twice: (a) as a concrete word through
  // the ISS, (b) as a symbolic word pinned by klee_assume. The retired
  // rd value must agree semantically — this exercises the entire
  // symbolic pipeline (fields, mux register file, solver) against the
  // plain interpreter.
  std::mt19937 rng(20260704);
  const auto table = rv32::decodeTable();
  for (int round = 0; round < 25; ++round) {
    // Pick an ALU-ish instruction writing x3 from x1/x2.
    std::uint32_t word;
    rv32::Decoded d;
    do {
      const rv32::DecodePattern& p = table[rng() % table.size()];
      word = (static_cast<std::uint32_t>(rng()) & ~p.mask) | p.match;
      word &= ~((31u << 7) | (31u << 15) | (31u << 20));
      word |= (3u << 7) | (1u << 15) | (2u << 20);
      word = (word & ~p.mask) | p.match;
      d = rv32::decode(word);
    } while (!rv32::writesRd(d.op) || rv32::isLoad(d.op) ||
             rv32::isCsrOp(d.op) || d.op == rv32::Opcode::Jalr ||
             d.op == rv32::Opcode::Jal);
    const std::uint32_t x1 = rng(), x2 = rng();

    // (a) concrete.
    expr::ExprBuilder eb_c;
    symex::ExecState st_c(eb_c, {}, {});
    ProgramMemory imem_c;
    core::InitialImage img_c;
    core::SymbolicDataMemory dmem_c(img_c);
    IssConfig cfg;
    cfg.csr = CsrConfig::specCorrect();
    Iss iss_c(eb_c, imem_c, dmem_c, cfg);
    iss_c.regs().set(eb_c, 1, eb_c.constant(x1, 32));
    iss_c.regs().set(eb_c, 2, eb_c.constant(x2, 32));
    imem_c.load(0x80000000, {word});
    iss_c.step(st_c);
    ASSERT_TRUE(iss_c.regs().get(3)->isConstant()) << rv32::disassemble(word);
    const std::uint32_t expected = static_cast<std::uint32_t>(
        iss_c.regs().get(3)->constantValue());

    // (b) symbolic, pinned by assumes.
    expr::ExprBuilder eb_s;
    symex::ExecState st_s(eb_s, {}, {});
    struct PinnedSource final : InstrSourceIf {
      std::uint32_t word;
      expr::ExprRef fetch(symex::ExecState& s, std::uint32_t) override {
        const expr::ExprRef v = s.makeSymbolic("instr", 32);
        s.assume(s.builder().eqConst(v, word));
        return v;
      }
    } imem_s;
    imem_s.word = word;
    core::InitialImage img_s;
    core::SymbolicDataMemory dmem_s(img_s);
    Iss iss_s(eb_s, imem_s, dmem_s, cfg);
    const expr::ExprRef sx1 = st_s.makeSymbolic("x1", 32);
    const expr::ExprRef sx2 = st_s.makeSymbolic("x2", 32);
    st_s.assume(eb_s.eqConst(sx1, x1));
    st_s.assume(eb_s.eqConst(sx2, x2));
    iss_s.regs().set(eb_s, 1, sx1);
    iss_s.regs().set(eb_s, 2, sx2);
    iss_s.step(st_s);
    EXPECT_TRUE(st_s.mustBeTrue(
        eb_s.eq(iss_s.regs().get(3), eb_s.constant(expected, 32))))
        << rv32::disassemble(word) << " x1=" << x1 << " x2=" << x2;
  }
}

}  // namespace
}  // namespace rvsym::iss
