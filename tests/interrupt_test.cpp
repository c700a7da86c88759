// Tests for machine-interrupt support (extension feature): gating by
// mstatus.MIE / mie / mip, priority order, trap-state updates, lockstep
// agreement between the two models, and mismatch detection when only one
// model implements interrupts.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/cosim.hpp"
#include "core/monitor.hpp"
#include "core/symmem.hpp"
#include "expr/builder.hpp"
#include "iss/iss.hpp"
#include "rtl/core.hpp"
#include "rv32/csr.hpp"
#include "rv32/encode.hpp"
#include "symex/engine.hpp"

namespace rvsym {
namespace {

using namespace rv32;
constexpr std::uint32_t kResetPc = 0x80000000;

struct IssIrqFixture : ::testing::Test {
  expr::ExprBuilder eb;
  symex::ExecState st{eb, {}, {}};
  core::InitialImage image;
  core::SymbolicDataMemory dmem{image};

  struct ProgMem final : iss::InstrSourceIf {
    std::unordered_map<std::uint32_t, std::uint32_t> words;
    expr::ExprRef fetch(symex::ExecState& s, std::uint32_t addr) override {
      auto it = words.find(addr);
      return s.builder().constant(it == words.end() ? 0x13 : it->second, 32);
    }
  } imem;

  std::unique_ptr<iss::Iss> iss_;

  void makeIss() {
    iss::IssConfig cfg;
    cfg.csr = iss::CsrConfig::specCorrect();
    iss_ = std::make_unique<iss::Iss>(eb, imem, dmem, cfg);
  }
  void put(std::uint32_t addr, std::uint32_t word) {
    imem.words[addr] = word;
  }
  std::uint32_t reg(unsigned i) {
    return static_cast<std::uint32_t>(iss_->regs().get(i)->constantValue());
  }
  std::uint32_t pc() {
    return static_cast<std::uint32_t>(iss_->pc()->constantValue());
  }
};

TEST_F(IssIrqFixture, InterruptRedirectsToHandler) {
  makeIss();
  // mtvec = handler; mie.MEIE = 1; mstatus.MIE = 1.
  put(kResetPc + 0, enc::lui(1, 0x80002000));
  put(kResetPc + 4, enc::csrrw(0, csr::kMtvec, 1));
  put(kResetPc + 8, enc::csrrwi(0, csr::kMie, 0));  // placeholder
  iss_->step(st);
  iss_->step(st);
  // mie bit 11 needs a register value (zimm is only 5 bits).
  iss_->regs().set(eb, 2, eb.constant(1u << 11, 32));
  put(kResetPc + 8, enc::csrrw(0, csr::kMie, 2));
  iss_->step(st);
  iss_->regs().set(eb, 3, eb.constant(0x8, 32));
  put(kResetPc + 12, enc::csrrw(0, csr::kMstatus, 3));
  iss_->step(st);

  // No interrupt pending yet: next instruction executes normally.
  put(kResetPc + 16, enc::addi(4, 0, 7));
  iss_->step(st);
  EXPECT_EQ(reg(4), 7u);

  // Raise the external line: the NEXT step takes the interrupt first.
  iss_->csrs().setInterruptLine(11, true);
  put(0x80002000, enc::addi(5, 0, 9));  // handler body
  const iss::RetireInfo r = iss_->step(st);
  EXPECT_FALSE(r.trap);  // the retired instruction is the handler's first
  EXPECT_EQ(reg(5), 9u);
  // mcause must record the external machine interrupt.
  EXPECT_TRUE(iss_->csrs().mcause()->isConstantValue(0x8000000Bu));
  // mepc points at the interrupted instruction.
  EXPECT_TRUE(iss_->csrs().mepc()->isConstantValue(kResetPc + 20));
}

TEST_F(IssIrqFixture, MaskedInterruptIsNotTaken) {
  makeIss();
  iss_->csrs().setInterruptLine(11, true);  // pending but MIE=0, MEIE=0
  put(kResetPc, enc::addi(4, 0, 1));
  iss_->step(st);
  EXPECT_EQ(reg(4), 1u);
  EXPECT_EQ(pc(), kResetPc + 4);
}

TEST_F(IssIrqFixture, PriorityExternalOverSoftwareOverTimer) {
  makeIss();
  iss_->regs().set(eb, 2, eb.constant((1u << 11) | (1u << 3) | (1u << 7), 32));
  put(kResetPc + 0, enc::csrrw(0, csr::kMie, 2));
  iss_->regs().set(eb, 3, eb.constant(0x8, 32));
  put(kResetPc + 4, enc::csrrw(0, csr::kMstatus, 3));
  iss_->step(st);
  iss_->step(st);
  iss_->csrs().setInterruptLine(3, true);
  iss_->csrs().setInterruptLine(7, true);
  iss_->csrs().setInterruptLine(11, true);
  iss_->step(st);  // takes MEI first
  EXPECT_TRUE(iss_->csrs().mcause()->isConstantValue(0x8000000Bu));
}

// --- Co-simulation lockstep with interrupts ------------------------------------

core::CosimConfig irqConfig() {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 3;
  cfg.irq_line = 11;
  cfg.irq_at_cycle = 6;
  return cfg;
}

TEST(CosimInterrupts, BothModelsAgreeUnderInjection) {
  core::CosimConfig cfg = irqConfig();
  // Free symbolic instructions + an injected external interrupt: no
  // mismatch may surface (both models share the interrupt semantics).
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 150;
  symex::Engine engine(opts);
  const auto report = engine.run(core::cosimFactory(cfg));
  EXPECT_EQ(report.error_paths, 0u);
  EXPECT_GE(report.completed_paths, 20u);
}

TEST(CosimInterrupts, AsymmetricSupportIsDetected) {
  core::CosimConfig cfg = irqConfig();
  cfg.rtl.enable_interrupts = false;  // RTL ignores the line
  // Scenario assume: pin the enabling sequence (csrrw mstatus, x1;
  // csrrw mie, x2) with SYMBOLIC x1/x2 — the engine solves for register
  // values that enable the interrupt, which only the ISS then takes.
  const std::uint32_t prog[] = {
      enc::csrrw(0, csr::kMstatus, 1),
      enc::csrrw(0, csr::kMie, 2),
      enc::nop(),
  };
  cfg.instr_constraint = [prog](symex::ExecState& st,
                                const expr::ExprRef& instr) {
    const std::string& name = instr->name();
    const auto addr = static_cast<std::uint32_t>(
        std::strtoul(name.c_str() + name.find('@') + 1, nullptr, 16));
    const std::uint32_t index = (addr - kResetPc) / 4;
    const std::uint32_t word = index < 3 ? prog[index] : enc::nop();
    st.assume(st.builder().eqConst(instr, word));
  };
  symex::EngineOptions opts;
  opts.stop_on_error = true;
  opts.max_paths = 4000;
  opts.max_seconds = 120;
  symex::Engine engine(opts);
  const auto report = engine.run(core::cosimFactory(cfg));
  EXPECT_GT(report.error_paths, 0u)
      << "interrupt-support mismatch must be discoverable";
}

// --- RVFI monitor ------------------------------------------------------------------

TEST(RvfiMonitor, AcceptsWellFormedStream) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  core::RvfiMonitor mon;
  iss::RetireInfo r;
  r.pc = eb.constant(kResetPc, 32);
  r.next_pc = eb.constant(kResetPc + 4, 32);
  r.instr = eb.constant(enc::nop(), 32);
  EXPECT_FALSE(mon.check(st, r).has_value());
  r.pc = r.next_pc;
  r.next_pc = eb.constant(kResetPc + 8, 32);
  EXPECT_FALSE(mon.check(st, r).has_value());
  EXPECT_EQ(mon.checkedRetirements(), 2u);
}

TEST(RvfiMonitor, CatchesChainBreak) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  core::RvfiMonitor mon;
  iss::RetireInfo r;
  r.pc = eb.constant(kResetPc, 32);
  r.next_pc = eb.constant(kResetPc + 4, 32);
  EXPECT_FALSE(mon.check(st, r).has_value());
  r.pc = eb.constant(kResetPc + 8, 32);  // skips an address
  ASSERT_TRUE(mon.check(st, r).has_value());
}

TEST(RvfiMonitor, CatchesX0Violation) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  core::RvfiMonitor mon;
  iss::RetireInfo r;
  r.pc = eb.constant(kResetPc, 32);
  r.next_pc = eb.constant(kResetPc + 4, 32);
  r.rd_index = eb.constant(0, 5);
  r.rd_value = eb.constant(7, 32);  // nonzero through x0: violation
  const auto v = mon.check(st, r);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("x0"), std::string::npos);
}

TEST(RvfiMonitor, CatchesTrapWithSideEffects) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  core::RvfiMonitor mon;
  iss::RetireInfo r;
  r.pc = eb.constant(kResetPc, 32);
  r.next_pc = eb.constant(0, 32);
  r.trap = true;
  r.cause = 2;
  r.rd_index = eb.constant(1, 5);
  r.rd_value = eb.constant(1, 32);
  EXPECT_TRUE(mon.check(st, r).has_value());
}

TEST(RvfiMonitor, CleanOnRealCosimStreams) {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 2;
  cfg.enable_rvfi_monitor = true;
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 80;
  symex::Engine engine(opts);
  const auto report = engine.run(core::cosimFactory(cfg));
  EXPECT_EQ(report.error_paths, 0u);
}

}  // namespace
}  // namespace rvsym
