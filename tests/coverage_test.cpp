// Tests for the coverage collector and the VCD trace writer.
#include <gtest/gtest.h>

#include <sstream>

#include "core/cosim.hpp"
#include "core/coverage.hpp"
#include "expr/builder.hpp"
#include "rtl/vcd.hpp"
#include "rv32/encode.hpp"
#include "symex/engine.hpp"

namespace rvsym {
namespace {

using namespace rv32;

symex::TestVector vectorWith(std::initializer_list<std::uint32_t> words) {
  symex::TestVector tv;
  std::uint32_t addr = 0x80000000;
  for (std::uint32_t w : words) {
    char name[24];
    std::snprintf(name, sizeof name, "instr@%08x", addr);
    tv.values.push_back({name, 32, w});
    addr += 4;
  }
  tv.values.push_back({"reg_x1", 32, 0});  // non-instruction entries ignored
  return tv;
}

TEST(Coverage, CountsOpcodesAndCsrs) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({enc::add(1, 2, 3), enc::addi(1, 2, 3),
                                enc::csrrw(1, csr::kMcycle, 2),
                                enc::csrrs(1, csr::kMstatus, 0)}));
  EXPECT_EQ(cov.opcodesCovered(), 4u);
  EXPECT_TRUE(cov.covers(Opcode::Add));
  EXPECT_TRUE(cov.covers(Opcode::Csrrw));
  EXPECT_FALSE(cov.covers(Opcode::Lw));
  EXPECT_EQ(cov.csrAddressesCovered(), 2u);
  EXPECT_FALSE(cov.coversIllegal());
  EXPECT_EQ(cov.distinctWords(), 4u);
}

TEST(Coverage, TracksIllegalEncodings) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({0xFFFFFFFF}));
  EXPECT_TRUE(cov.coversIllegal());
  EXPECT_EQ(cov.opcodesCovered(), 0u);
}

TEST(Coverage, DeduplicatesWords) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({enc::nop(), enc::nop()}));
  cov.addTestVector(vectorWith({enc::nop()}));
  EXPECT_EQ(cov.distinctWords(), 1u);
  EXPECT_EQ(cov.totalWords(), 3u);
}

TEST(Coverage, PercentAndHoles) {
  core::CoverageCollector cov;
  EXPECT_DOUBLE_EQ(cov.opcodeCoveragePercent(), 0.0);
  EXPECT_EQ(cov.uncoveredOpcodes().size(), decodeTable().size());
  cov.addTestVector(vectorWith({enc::add(1, 2, 3)}));
  EXPECT_GT(cov.opcodeCoveragePercent(), 0.0);
  EXPECT_EQ(cov.uncoveredOpcodes().size(), decodeTable().size() - 1);
  EXPECT_NE(cov.summary().find("1/48"), std::string::npos);
}

TEST(Coverage, DenominatorDerivesFromOpcodeEnum) {
  // The coverage denominator must come from the enum (statically tied to
  // the decode table in instr.cpp), not a hardcoded literal.
  EXPECT_EQ(kLegalOpcodeCount, decodeTable().size());
  core::CoverageCollector cov;
  for (const DecodePattern& p : decodeTable())
    cov.addTestVector(vectorWith({p.match}));
  EXPECT_EQ(cov.opcodesCovered(), kLegalOpcodeCount);
  EXPECT_DOUBLE_EQ(cov.opcodeCoveragePercent(), 100.0);
  EXPECT_TRUE(cov.uncoveredOpcodes().empty());
  EXPECT_TRUE(cov.uncoveredCells().empty());
  EXPECT_DOUBLE_EQ(cov.cellCoveragePercent(), 100.0);
}

TEST(Coverage, UncoveredOpcodesReportHoles) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({enc::add(1, 2, 3)}));
  const std::set<Opcode> missing = cov.uncoveredOpcodes();
  EXPECT_EQ(missing.size(), kLegalOpcodeCount - 1);
  EXPECT_TRUE(missing.count(Opcode::Lw));
  EXPECT_FALSE(missing.count(Opcode::Add));
  // The hole report names each uncovered decoder cell with its opcode.
  const std::string holes = cov.holeReport();
  EXPECT_NE(holes.find("(lw)"), std::string::npos);
  EXPECT_EQ(holes.find("(add)"), std::string::npos);
}

TEST(Coverage, DecoderCellsDistinguishSelectorFields) {
  // ADD and SUB share opcode7/funct3 and differ only in funct7; ECALL
  // and EBREAK differ only in the rs2 field. Each must get its own cell.
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({enc::add(1, 2, 3)}));
  EXPECT_EQ(cov.coveredCells().size(), 1u);
  cov.addTestVector(vectorWith({enc::sub(1, 2, 3)}));
  EXPECT_EQ(cov.coveredCells().size(), 2u);
  cov.addTestVector(vectorWith({enc::ecall(), enc::ebreak()}));
  EXPECT_EQ(cov.coveredCells().size(), 4u);
  // An immediate change must NOT create a new cell: funct7 of ADDI is
  // immediate bits, canonicalized to the wildcard.
  cov.addTestVector(vectorWith({enc::addi(1, 2, 1), enc::addi(1, 2, -1)}));
  EXPECT_EQ(cov.coveredCells().size(), 5u);
}

TEST(Coverage, IllegalCellsChartProbedSpace) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({0xFFFFFFFF}));
  EXPECT_EQ(cov.illegalCellsProbed().size(), 1u);
  EXPECT_TRUE(cov.coveredCells().empty());
  const core::DecoderCell& c = *cov.illegalCellsProbed().begin();
  EXPECT_EQ(c.opcode7, 0x7F);
  EXPECT_EQ(c.funct3, 7);
}

TEST(Coverage, CsrBinsTrapCausesAndVoterChannels) {
  core::CoverageCollector cov;
  EXPECT_EQ(cov.uncoveredCsrBins().size(), core::csrBinNames().size());
  EXPECT_EQ(cov.uncoveredVoterChannels().size(),
            core::voterChannelNames().size());

  cov.addTestVector(vectorWith({enc::csrrw(1, csr::kMstatus, 2)}));
  EXPECT_EQ(cov.coveredCsrBins(), std::set<std::string>{"trap-setup"});
  EXPECT_EQ(std::string(core::csrBinName(csr::kMcycle)), "machine-counters");
  EXPECT_EQ(std::string(core::csrBinName(csr::kMepc)), "trap-handling");
  EXPECT_EQ(std::string(core::csrBinName(0x7C0)), "other");

  // Tags feed run-level coverage through addPathRecord.
  symex::PathRecord record;
  record.tags = {"trap:2", "voter:pc", "voter:rd", "class:alu"};
  cov.addPathRecord(record);
  EXPECT_EQ(cov.trapCauses(), std::set<std::uint32_t>{2});
  EXPECT_EQ(cov.voterChannels(), (std::set<std::string>{"pc", "rd"}));
  EXPECT_EQ(cov.uncoveredVoterChannels().size(),
            core::voterChannelNames().size() - 2);
  const std::string holes = cov.holeReport();
  EXPECT_NE(holes.find("voter channel mem"), std::string::npos);
  EXPECT_NE(holes.find("csr bin machine-info"), std::string::npos);
}

TEST(Coverage, JsonMapShape) {
  core::CoverageCollector cov;
  cov.addTestVector(vectorWith({enc::add(1, 2, 3)}));
  const std::string json = cov.toJson();
  EXPECT_NE(json.find("\"opcodes\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":48"), std::string::npos);
  EXPECT_NE(json.find("\"opcode\":\"add\""), std::string::npos);
  EXPECT_NE(json.find("\"voter_channels\""), std::string::npos);
  EXPECT_NE(json.find("\"trap_causes\""), std::string::npos);
}

TEST(Coverage, SymbolicExplorationBuildsHighCoverage) {
  // The paper's claim: the generated test set has high coverage. A free
  // exploration of a few hundred paths must cover most opcodes.
  core::CosimConfig cfg;
  cfg.instr_limit = 1;
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 500;
  symex::Engine engine(opts);
  const symex::EngineReport report = engine.run(core::cosimFactory(cfg));

  core::CoverageCollector cov;
  cov.addReport(report);
  EXPECT_GE(cov.opcodeCoveragePercent(), 75.0) << cov.summary();
  EXPECT_TRUE(cov.coversIllegal());
  EXPECT_GT(cov.csrAddressesCovered(), 5u);
}

// --- VCD --------------------------------------------------------------------

TEST(Vcd, HeaderAndChanges) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  rtl::MicroRv32Core core(eb, rtl::fixedRtlConfig());
  std::ostringstream out;
  rtl::VcdWriter vcd(out, core);

  // Drive a NOP through the core, sampling each tick.
  bool retired = false;
  for (int i = 0; i < 20 && !retired; ++i) {
    core.tick(st);
    if (core.ibus.fetch_enable && !core.ibus.instruction_ready) {
      core.ibus.instruction = eb.constant(rv32::enc::nop(), 32);
      core.ibus.instruction_ready = true;
    } else if (!core.ibus.fetch_enable) {
      core.ibus.instruction_ready = false;
    }
    retired = core.rvfi.valid;
    vcd.sample();
  }
  ASSERT_TRUE(retired);

  const std::string text = out.str();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("$var wire 32"), std::string::npos);
  EXPECT_NE(text.find("imem_fetchEnable"), std::string::npos);
  EXPECT_NE(text.find("rvfi_valid"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  // Time markers and at least one multi-bit change.
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#3"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
  // The fetch address appears as a 32-bit binary change.
  EXPECT_NE(text.find(
                "b10000000000000000000000000000000"),
            std::string::npos);
}

TEST(Vcd, SymbolicValuesRenderAsX) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  rtl::MicroRv32Core core(eb, rtl::fixedRtlConfig());
  std::ostringstream out;
  rtl::VcdWriter vcd(out, core);
  core.ibus.instruction = eb.variable("some_symbolic_instr", 32);
  core.ibus.instruction_ready = true;
  core.tick(st);  // Fetch
  core.tick(st);  // WaitInstr latches the symbolic word
  vcd.sample();
  EXPECT_NE(out.str().find(std::string(32, 'x')), std::string::npos);
}

}  // namespace
}  // namespace rvsym
