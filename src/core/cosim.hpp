// The symbolic co-simulation testbench (paper §IV-B): instantiates the
// RTL core and the ISS over shared symbolic memories and sliced symbolic
// registers, drives the IBus/DBus protocols, invokes the voter at every
// RTL retirement and enforces the execution-controller limits.
//
// CoSimulation::runPath is the "co-simulation main" — the program handed
// to the symbolic execution engine; each engine path runs it once from
// reset.
#pragma once

#include <cstdint>
#include <vector>
#include <string>

#include "core/monitor.hpp"
#include "core/symmem.hpp"
#include "core/voter.hpp"
#include "expr/builder.hpp"
#include "iss/iss.hpp"
#include "obs/metrics.hpp"
#include "rtl/core.hpp"
#include "symex/engine.hpp"

namespace rvsym::core {

struct CosimConfig {
  rtl::RtlConfig rtl;   ///< authentic MicroRV32 by default
  iss::IssConfig iss;   ///< authentic RISC-V VP by default

  /// Sliced symbolic registers (§IV-C.3): x0 stays hardwired zero,
  /// x1..x<num_symbolic_regs> are initialized with one shared symbolic
  /// value per register in both models, the rest are regular registers.
  /// Two suffice for RV32I (no instruction reads more than two sources).
  unsigned num_symbolic_regs = 2;

  /// Execution controller (§IV-D): stop the path after this many retired
  /// instructions...
  unsigned instr_limit = 1;
  /// ...or after this many clock cycles (0 = derived from instr_limit).
  unsigned cycle_limit = 0;

  /// klee_assume hook applied to each generated instruction word.
  InstrConstraint instr_constraint;

  /// Optional hook invoked once per path after the sliced symbolic
  /// registers are initialized — used e.g. by test-vector replay to pin
  /// the register inputs to recorded values.
  std::function<void(symex::ExecState&)> post_init_hook;

  /// Enables the riscv-formal-style RVFI self-consistency monitor on
  /// both retirement streams (solver-backed; off by default for speed).
  bool enable_rvfi_monitor = false;

  /// Testbench interrupt injection: assert this mip bit (3=MSI, 7=MTI,
  /// 11=MEI; -1 = none) on both models after `irq_at_cycle` clock cycles.
  int irq_line = -1;
  unsigned irq_at_cycle = 0;

  /// Bus wait states: the testbench answers IBus/DBus requests only
  /// after this many extra cycles (protocol-robustness testing; the
  /// core must stall without functional change).
  unsigned bus_wait_states = 0;

  /// Fault injection for Table II (applied to the RTL core per path).
  rtl::ExecFaults faults;
  /// Decode-table mask bits to clear, as {opcode, bit} pairs (E0-E2).
  struct DecodeDontCare {
    rv32::Opcode op;
    unsigned bit;
  };
  std::vector<DecodeDontCare> decode_dont_cares;

  // --- Observability --------------------------------------------------------
  /// Per-instruction step-time histograms ("cosim.rtl_instr_us": RTL
  /// clock cycles between retirements; "cosim.iss_step_us": one ISS
  /// step). nullptr keeps the hot loop free of clock reads.
  obs::MetricsRegistry* metrics = nullptr;
  /// Recording hooks for concrete replay (mismatch-repro bundles attach
  /// a VCD writer and RVFI recorders here). All optional; each costs one
  /// branch per use site when unset. They run on the worker executing
  /// the path, so anything they touch must be per-harness state.
  std::function<void(const rtl::MicroRv32Core&)> on_core_built;
  /// After testbench bus servicing, once per clock cycle (VCD sampling).
  std::function<void()> on_cycle;
  /// At every voter invocation, with both retirement records — called
  /// before the comparison, so the mismatching retirement is captured.
  std::function<void(symex::ExecState&, const iss::RetireInfo& rtl,
                     const iss::RetireInfo& iss)>
      on_retire;
};

class CoSimulation {
 public:
  CoSimulation(expr::ExprBuilder& eb, CosimConfig config);

  /// One full co-simulation from reset — the engine's path program.
  /// `st` must run on the builder this harness was built on.
  void runPath(symex::ExecState& st);

  const CosimConfig& config() const { return config_; }

  // --- Standard scenario constraints (klee_assume recipes) -----------------
  /// Blocks SYSTEM-opcode instructions (CSR ops, ECALL/EBREAK/WFI/MRET):
  /// the Table II configuration ("only RV32I").
  static InstrConstraint blockSystemInstructions();
  /// Restricts generation to one major opcode (scenario focus).
  static InstrConstraint onlyMajorOpcode(std::uint32_t opcode7);
  /// Restricts generation to SYSTEM instructions (CSR exploration).
  static InstrConstraint onlySystemInstructions();
  /// Restricts generation to CSR instructions on one specific CSR
  /// address (targeted stateful-CSR scenarios, e.g. write mscratch then
  /// read it back).
  static InstrConstraint onlyCsrAddress(std::uint16_t csr_addr);

 private:
  expr::ExprBuilder& eb_;
  CosimConfig config_;
  // Histogram handles resolved once per harness (registry look-ups are
  // mutex-guarded; the hot loop must not pay for them per path).
  obs::Histogram* rtl_instr_us_ = nullptr;
  obs::Histogram* iss_step_us_ = nullptr;
};

/// The engine's program factory for `config`: one CoSimulation per
/// worker, built on that worker's private builder.
symex::ProgramFactory cosimFactory(CosimConfig config);

/// Formats the voter-mismatch message so the classifier can recover the
/// faulting PC ("voter mismatch [field] pc=XXXXXXXX: detail").
std::string formatMismatchMessage(const Mismatch& m, std::uint32_t pc);
/// Parses a message produced by formatMismatchMessage.
bool parseMismatchMessage(const std::string& message, std::string& field,
                          std::uint32_t& pc);

}  // namespace rvsym::core
