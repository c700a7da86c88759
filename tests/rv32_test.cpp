// Tests for the RV32 ISA utilities: encoder/decoder round trips,
// immediate extraction, the decode table's disjointness, symbolic field
// extraction vs the concrete decoder, CSR map and the disassembler.
#include <gtest/gtest.h>

#include <random>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "rv32/csr.hpp"
#include "rv32/encode.hpp"
#include "rv32/fields.hpp"
#include "rv32/instr.hpp"

namespace rvsym::rv32 {
namespace {

// --- Decode table sanity -----------------------------------------------------

TEST(DecodeTable, PatternsArePairwiseDisjoint) {
  const auto table = decodeTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      const auto& a = table[i];
      const auto& b = table[j];
      const std::uint32_t common = a.mask & b.mask;
      EXPECT_NE(a.match & common, b.match & common)
          << opcodeName(a.op) << " overlaps " << opcodeName(b.op);
    }
  }
}

TEST(DecodeTable, MatchBitsWithinMask) {
  for (const DecodePattern& p : decodeTable())
    EXPECT_EQ(p.match & ~p.mask, 0u) << opcodeName(p.op);
}

TEST(DecodeTable, CoversAllOpcodesOnce) {
  std::set<Opcode> seen;
  for (const DecodePattern& p : decodeTable())
    EXPECT_TRUE(seen.insert(p.op).second) << opcodeName(p.op);
  EXPECT_EQ(seen.size(), 48u);
  EXPECT_EQ(seen.count(Opcode::Illegal), 0u);
}

// --- Round trips -----------------------------------------------------------------

struct RoundTrip {
  const char* name;
  std::uint32_t word;
  Opcode op;
  unsigned rd, rs1, rs2;
  std::int32_t imm;
};

// Without a printer gtest shows the raw bytes of the case, `name`'s
// address included, in the listed test names; that address moves with
// every load of the binary, so the listed names would too.
void PrintTo(const RoundTrip& t, std::ostream* os) { *os << t.name; }

class EncodeDecodeRoundTrip : public ::testing::TestWithParam<RoundTrip> {};

TEST_P(EncodeDecodeRoundTrip, DecodesBack) {
  const RoundTrip& t = GetParam();
  const Decoded d = decode(t.word);
  EXPECT_EQ(d.op, t.op) << disassemble(t.word);
  if (writesRd(t.op)) {
    EXPECT_EQ(d.rd, t.rd);
  }
  if (readsRs1(t.op)) {
    EXPECT_EQ(d.rs1, t.rs1);
  }
  if (readsRs2(t.op)) {
    EXPECT_EQ(d.rs2, t.rs2);
  }
  if (t.imm != 0) {
    EXPECT_EQ(d.imm, t.imm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EncodeDecodeRoundTrip,
    ::testing::Values(
        RoundTrip{"lui", enc::lui(5, 0x12345000), Opcode::Lui, 5, 0, 0,
                  0x12345000},
        RoundTrip{"auipc", enc::auipc(1, static_cast<std::int32_t>(0x80000000)),
                  Opcode::Auipc, 1, 0, 0,
                  static_cast<std::int32_t>(0x80000000)},
        RoundTrip{"jal", enc::jal(1, -2048), Opcode::Jal, 1, 0, 0, -2048},
        RoundTrip{"jal_pos", enc::jal(0, 0xFFFFE), Opcode::Jal, 0, 0, 0,
                  0xFFFFE},
        RoundTrip{"jalr", enc::jalr(1, 2, -4), Opcode::Jalr, 1, 2, 0, -4},
        RoundTrip{"beq", enc::beq(3, 4, -8), Opcode::Beq, 0, 3, 4, -8},
        RoundTrip{"bne", enc::bne(3, 4, 4094), Opcode::Bne, 0, 3, 4, 4094},
        RoundTrip{"blt", enc::blt(5, 6, -4096), Opcode::Blt, 0, 5, 6, -4096},
        RoundTrip{"bge", enc::bge(7, 8, 16), Opcode::Bge, 0, 7, 8, 16},
        RoundTrip{"bltu", enc::bltu(9, 10, 32), Opcode::Bltu, 0, 9, 10, 32},
        RoundTrip{"bgeu", enc::bgeu(11, 12, 64), Opcode::Bgeu, 0, 11, 12, 64},
        RoundTrip{"lb", enc::lb(1, 2, -1), Opcode::Lb, 1, 2, 0, -1},
        RoundTrip{"lh", enc::lh(3, 4, 2047), Opcode::Lh, 3, 4, 0, 2047},
        RoundTrip{"lw", enc::lw(5, 6, -2048), Opcode::Lw, 5, 6, 0, -2048},
        RoundTrip{"lbu", enc::lbu(7, 8, 1), Opcode::Lbu, 7, 8, 0, 1},
        RoundTrip{"lhu", enc::lhu(9, 10, 2), Opcode::Lhu, 9, 10, 0, 2},
        RoundTrip{"sb", enc::sb(1, 2, -1), Opcode::Sb, 0, 2, 1, -1},
        RoundTrip{"sh", enc::sh(3, 4, 2047), Opcode::Sh, 0, 4, 3, 2047},
        RoundTrip{"sw", enc::sw(5, 6, -2048), Opcode::Sw, 0, 6, 5, -2048},
        RoundTrip{"addi", enc::addi(1, 2, -5), Opcode::Addi, 1, 2, 0, -5},
        RoundTrip{"slti", enc::slti(3, 4, 100), Opcode::Slti, 3, 4, 0, 100},
        RoundTrip{"sltiu", enc::sltiu(5, 6, 7), Opcode::Sltiu, 5, 6, 0, 7},
        RoundTrip{"xori", enc::xori(7, 8, -1), Opcode::Xori, 7, 8, 0, -1},
        RoundTrip{"ori", enc::ori(9, 10, 255), Opcode::Ori, 9, 10, 0, 255},
        RoundTrip{"andi", enc::andi(11, 12, 15), Opcode::Andi, 11, 12, 0, 15},
        RoundTrip{"add", enc::add(1, 2, 3), Opcode::Add, 1, 2, 3, 0},
        RoundTrip{"sub", enc::sub(4, 5, 6), Opcode::Sub, 4, 5, 6, 0},
        RoundTrip{"sll", enc::sll(7, 8, 9), Opcode::Sll, 7, 8, 9, 0},
        RoundTrip{"slt", enc::slt(10, 11, 12), Opcode::Slt, 10, 11, 12, 0},
        RoundTrip{"sltu", enc::sltu(13, 14, 15), Opcode::Sltu, 13, 14, 15, 0},
        RoundTrip{"xor", enc::xor_(16, 17, 18), Opcode::Xor, 16, 17, 18, 0},
        RoundTrip{"srl", enc::srl(19, 20, 21), Opcode::Srl, 19, 20, 21, 0},
        RoundTrip{"sra", enc::sra(22, 23, 24), Opcode::Sra, 22, 23, 24, 0},
        RoundTrip{"or", enc::or_(25, 26, 27), Opcode::Or, 25, 26, 27, 0},
        RoundTrip{"and", enc::and_(28, 29, 30), Opcode::And, 28, 29, 30, 0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Decode, Shifts) {
  const Decoded slli = decode(enc::slli(1, 2, 31));
  EXPECT_EQ(slli.op, Opcode::Slli);
  EXPECT_EQ(slli.shamt, 31);
  const Decoded srli = decode(enc::srli(1, 2, 0));
  EXPECT_EQ(srli.op, Opcode::Srli);
  const Decoded srai = decode(enc::srai(1, 2, 7));
  EXPECT_EQ(srai.op, Opcode::Srai);
  EXPECT_EQ(srai.shamt, 7);
}

TEST(Decode, SystemInstructions) {
  EXPECT_EQ(decode(enc::ecall()).op, Opcode::Ecall);
  EXPECT_EQ(decode(enc::ebreak()).op, Opcode::Ebreak);
  EXPECT_EQ(decode(enc::mret()).op, Opcode::Mret);
  EXPECT_EQ(decode(enc::wfi()).op, Opcode::Wfi);
  EXPECT_EQ(decode(enc::fence()).op, Opcode::Fence);
}

TEST(Decode, CsrInstructions) {
  const Decoded d = decode(enc::csrrw(1, csr::kMcycle, 2));
  EXPECT_EQ(d.op, Opcode::Csrrw);
  EXPECT_EQ(d.rd, 1);
  EXPECT_EQ(d.rs1, 2);
  EXPECT_EQ(d.csr, csr::kMcycle);
  const Decoded di = decode(enc::csrrsi(3, csr::kMarchid, 5));
  EXPECT_EQ(di.op, Opcode::Csrrsi);
  EXPECT_EQ(di.zimm, 5);
  EXPECT_EQ(di.csr, csr::kMarchid);
}

TEST(Decode, ReservedEncodingsAreIllegal) {
  // Shift with funct7 bit 25 set (reserved next to SLLI).
  EXPECT_EQ(decode(enc::slli(1, 2, 3) | (1u << 25)).op, Opcode::Illegal);
  // funct3=5 branch does exist (bge); funct3=2 branch does not.
  EXPECT_EQ(decode(enc::bType(4, 1, 2, 2, 0x63)).op, Opcode::Illegal);
  // Load with funct3=3 (ld) is RV64-only.
  EXPECT_EQ(decode(enc::iType(0, 1, 3, 2, 0x03)).op, Opcode::Illegal);
  EXPECT_EQ(decode(0).op, Opcode::Illegal);
  EXPECT_EQ(decode(0xFFFFFFFFu).op, Opcode::Illegal);
}

// --- Immediate extraction: symbolic matches concrete (property) ---------------------

TEST(SymbolicFields, ImmediatesMatchConcreteDecoder) {
  expr::ExprBuilder eb;
  auto v = eb.variable("insn", 32);
  std::mt19937 rng(1234);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t word = rng();
    expr::Assignment asg;
    asg.set(v->variableId(), word);
    EXPECT_EQ(evaluate(sym::immI(eb, v), asg),
              static_cast<std::uint32_t>(immI(word)));
    EXPECT_EQ(evaluate(sym::immS(eb, v), asg),
              static_cast<std::uint32_t>(immS(word)));
    EXPECT_EQ(evaluate(sym::immB(eb, v), asg),
              static_cast<std::uint32_t>(immB(word)));
    EXPECT_EQ(evaluate(sym::immU(eb, v), asg),
              static_cast<std::uint32_t>(immU(word)));
    EXPECT_EQ(evaluate(sym::immJ(eb, v), asg),
              static_cast<std::uint32_t>(immJ(word)));
    EXPECT_EQ(evaluate(sym::rd(eb, v), asg), (word >> 7) & 31);
    EXPECT_EQ(evaluate(sym::rs1(eb, v), asg), (word >> 15) & 31);
    EXPECT_EQ(evaluate(sym::rs2(eb, v), asg), (word >> 20) & 31);
    EXPECT_EQ(evaluate(sym::csrAddr(eb, v), asg), word >> 20);
  }
}

TEST(SymbolicFields, MatchesAgreesWithConcreteDecode) {
  expr::ExprBuilder eb;
  auto v = eb.variable("insn", 32);
  std::mt19937 rng(99);
  // Seed with real encodings plus random words.
  std::vector<std::uint32_t> words{enc::add(1, 2, 3), enc::slli(4, 5, 6),
                                   enc::wfi(), enc::ecall(),
                                   enc::csrrw(1, 0x300, 2)};
  for (int i = 0; i < 200; ++i) words.push_back(rng());
  for (std::uint32_t w : words) {
    expr::Assignment asg;
    asg.set(v->variableId(), w);
    const Decoded d = decode(w);
    for (const DecodePattern& p : decodeTable()) {
      const bool concrete = (w & p.mask) == p.match;
      EXPECT_EQ(evaluate(sym::matches(eb, v, p), asg), concrete ? 1u : 0u);
      if (concrete) {
        EXPECT_EQ(d.op, p.op);
      }
    }
  }
}

// --- CSR map --------------------------------------------------------------------------

TEST(CsrMap, NamesKnownCsrs) {
  EXPECT_STREQ(csrName(csr::kMstatus), "mstatus");
  EXPECT_STREQ(csrName(csr::kMcycle), "mcycle");
  EXPECT_STREQ(csrName(csr::kMhartid), "mhartid");
  EXPECT_STREQ(csrName(0xB10), "mhpmcounter16");
  EXPECT_STREQ(csrName(0xB83), "mhpmcounter3h");
  EXPECT_STREQ(csrName(0x330), "mhpmevent16");
  EXPECT_STREQ(csrName(csr::kTimeh), "timeh");
  EXPECT_EQ(csrName(0x400), nullptr);
}

TEST(CsrMap, ReadOnlyAddressScheme) {
  EXPECT_TRUE(csr::isReadOnlyAddress(csr::kMvendorid));
  EXPECT_TRUE(csr::isReadOnlyAddress(csr::kMhartid));
  EXPECT_TRUE(csr::isReadOnlyAddress(csr::kCycle));
  EXPECT_TRUE(csr::isReadOnlyAddress(csr::kInstreth));
  EXPECT_FALSE(csr::isReadOnlyAddress(csr::kMstatus));
  EXPECT_FALSE(csr::isReadOnlyAddress(csr::kMcycle));
  EXPECT_FALSE(csr::isReadOnlyAddress(csr::kMscratch));
}

TEST(CsrMap, Ranges) {
  EXPECT_TRUE(csr::isMhpmcounter(0xB03));
  EXPECT_TRUE(csr::isMhpmcounter(0xB1F));
  EXPECT_FALSE(csr::isMhpmcounter(0xB20));
  EXPECT_FALSE(csr::isMhpmcounter(csr::kMcycle));
  EXPECT_TRUE(csr::isMhpmevent(0x323));
  EXPECT_FALSE(csr::isMhpmevent(0x322));
}

// --- Disassembler ------------------------------------------------------------------------

TEST(Disassembler, RendersRepresentativeForms) {
  EXPECT_EQ(disassemble(enc::addi(1, 2, -5)), "addi x1, x2, -5");
  EXPECT_EQ(disassemble(enc::add(3, 4, 5)), "add x3, x4, x5");
  EXPECT_EQ(disassemble(enc::lw(1, 2, 8)), "lw x1, 8(x2)");
  EXPECT_EQ(disassemble(enc::sw(1, 2, -4)), "sw x1, -4(x2)");
  EXPECT_EQ(disassemble(enc::beq(1, 2, 16)), "beq x1, x2, 16");
  EXPECT_EQ(disassemble(enc::jal(1, 2048)), "jal x1, 2048");
  EXPECT_EQ(disassemble(enc::slli(1, 2, 7)), "slli x1, x2, 7");
  EXPECT_EQ(disassemble(enc::csrrw(0, csr::kMcycle, 1)),
            "csrrw x0, mcycle, x1");
  EXPECT_EQ(disassemble(enc::csrrwi(0, 0x400, 3)), "csrrwi x0, 0x400, 3");
  EXPECT_EQ(disassemble(enc::wfi()), "wfi");
  EXPECT_EQ(disassemble(0), ".word 0x0");
}

TEST(RegNames, AbiNames) {
  EXPECT_STREQ(regName(0), "zero");
  EXPECT_STREQ(regName(1), "ra");
  EXPECT_STREQ(regName(2), "sp");
  EXPECT_STREQ(regName(10), "a0");
  EXPECT_STREQ(regName(31), "t6");
}

// --- Opcode predicates -----------------------------------------------------------------------

TEST(Predicates, Consistency) {
  for (const DecodePattern& p : decodeTable()) {
    if (isLoad(p.op)) {
      EXPECT_TRUE(writesRd(p.op));
      EXPECT_TRUE(readsRs1(p.op));
      EXPECT_FALSE(readsRs2(p.op));
    }
    if (isStore(p.op)) {
      EXPECT_FALSE(writesRd(p.op));
      EXPECT_TRUE(readsRs2(p.op));
    }
    if (isCsrOp(p.op)) {
      EXPECT_TRUE(writesRd(p.op));
    }
  }
}

}  // namespace
}  // namespace rvsym::rv32
