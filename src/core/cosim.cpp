#include "core/cosim.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "obs/phase.hpp"

#include "rv32/fields.hpp"

namespace rvsym::core {

using expr::ExprRef;
using symex::ExecState;

CoSimulation::CoSimulation(expr::ExprBuilder& eb, CosimConfig config)
    : eb_(eb), config_(std::move(config)) {
  if (config_.metrics) {
    rtl_instr_us_ = &config_.metrics->histogram("cosim.rtl_instr_us");
    iss_step_us_ = &config_.metrics->histogram("cosim.iss_step_us");
  }
}

symex::ProgramFactory cosimFactory(CosimConfig config) {
  return [config = std::move(config)](symex::WorkerContext& ctx) {
    auto cosim = std::make_shared<CoSimulation>(ctx.builder, config);
    return [cosim](ExecState& st) { cosim->runPath(st); };
  };
}

std::string formatMismatchMessage(const Mismatch& m, std::uint32_t pc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", pc);
  return "voter mismatch [" + m.field + "] pc=" + buf + ": " + m.detail;
}

bool parseMismatchMessage(const std::string& message, std::string& field,
                          std::uint32_t& pc) {
  const auto lb = message.find('[');
  const auto rb = message.find(']');
  const auto pcpos = message.find("pc=");
  if (lb == std::string::npos || rb == std::string::npos ||
      pcpos == std::string::npos)
    return false;
  field = message.substr(lb + 1, rb - lb - 1);
  pc = static_cast<std::uint32_t>(
      std::strtoul(message.c_str() + pcpos + 3, nullptr, 16));
  return true;
}

InstrConstraint CoSimulation::blockSystemInstructions() {
  return [](ExecState& st, const ExprRef& instr) {
    expr::ExprBuilder& eb = st.builder();
    st.assume(eb.ne(rv32::sym::opcode(eb, instr), eb.constant(0x73, 7)));
  };
}

InstrConstraint CoSimulation::onlyMajorOpcode(std::uint32_t opcode7) {
  return [opcode7](ExecState& st, const ExprRef& instr) {
    expr::ExprBuilder& eb = st.builder();
    st.assume(eb.eq(rv32::sym::opcode(eb, instr), eb.constant(opcode7, 7)));
  };
}

InstrConstraint CoSimulation::onlySystemInstructions() {
  return onlyMajorOpcode(0x73);
}

InstrConstraint CoSimulation::onlyCsrAddress(std::uint16_t csr_addr) {
  return [csr_addr](ExecState& st, const ExprRef& instr) {
    expr::ExprBuilder& eb = st.builder();
    st.assume(eb.eq(rv32::sym::opcode(eb, instr), eb.constant(0x73, 7)));
    // funct3 != 0 keeps the word a CSR access (not ECALL/WFI/...).
    st.assume(eb.ne(rv32::sym::funct3(eb, instr), eb.constant(0, 3)));
    st.assume(eb.eq(rv32::sym::csrAddr(eb, instr),
                    eb.constant(csr_addr, 12)));
  };
}

void CoSimulation::runPath(ExecState& st) {
  // Fresh testbench per path (the engine replays from reset).
  InitialImage image;
  SymbolicInstrMemory imem(config_.instr_constraint);
  SymbolicDataMemory rtl_mem(image);
  SymbolicDataMemory iss_mem(image);

  rtl::RtlConfig rtl_cfg = config_.rtl;
  rtl_cfg.faults = rtl_cfg.faults | config_.faults;
  rtl::MicroRv32Core core(eb_, rtl_cfg);
  // E0-E2: clear decode-table mask bits (decoder don't-cares).
  for (const CosimConfig::DecodeDontCare& dc : config_.decode_dont_cares)
    for (rv32::DecodePattern& p : core.decodeTableMut())
      if (p.op == dc.op) p.mask &= ~(1u << dc.bit);

  iss::Iss iss(eb_, imem, iss_mem, config_.iss);
  Voter voter;
  RvfiMonitor rtl_monitor;
  RvfiMonitor iss_monitor;

  // Sliced symbolic registers: the same symbolic word goes into both
  // register files so only genuine behavioural differences can diverge.
  for (unsigned i = 1; i <= config_.num_symbolic_regs && i < 32; ++i) {
    const ExprRef v = st.makeSymbolic("reg_x" + std::to_string(i), 32);
    core.regs().set(eb_, i, v);
    iss.regs().set(eb_, i, v);
  }

  if (config_.post_init_hook) config_.post_init_hook(st);
  if (config_.on_core_built) config_.on_core_built(core);

  using ObsClock = std::chrono::steady_clock;
  // Accumulated RTL time since the last retirement: the RTL side of a
  // "per-instruction step" spans several clock ticks. Timed when either
  // consumer wants it: the registry histograms, or the trace sink (the
  // per-path t_rtl_us / t_iss_us attribution fields at path_end).
  const bool time_steps = rtl_instr_us_ != nullptr || st.tracingEnabled();
  std::uint64_t rtl_accum_us = 0;

  unsigned retired = 0;
  const unsigned waits = config_.bus_wait_states;
  unsigned ibus_delay = waits;
  unsigned dbus_delay = waits;
  const unsigned cycle_limit =
      config_.cycle_limit != 0
          ? config_.cycle_limit
          : (40 + 24 * waits) * config_.instr_limit + 24;

  for (unsigned cycle = 0; cycle < cycle_limit; ++cycle) {
    // Testbench interrupt injection: raise the line on both models.
    if (config_.irq_line >= 0 && cycle == config_.irq_at_cycle) {
      core.csrs().setInterruptLine(static_cast<unsigned>(config_.irq_line),
                                   true);
      iss.csrs().setInterruptLine(static_cast<unsigned>(config_.irq_line),
                                  true);
    }
    {
      const obs::PhaseTimer rtl_phase(st.profiler(), "rtl");
      if (time_steps) {
        const auto t0 = ObsClock::now();
        core.tick(st);
        rtl_accum_us += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                ObsClock::now() - t0)
                .count());
      } else {
        core.tick(st);
      }
    }

    // --- IBus protocol: answer a fetch, hold ready for one cycle. ---------
    if (core.ibus.fetch_enable && !core.ibus.instruction_ready) {
      if (ibus_delay > 0) {
        --ibus_delay;  // wait state: core stalls in WaitInstr
      } else {
        core.ibus.instruction = imem.fetch(st, core.ibus.address);
        core.ibus.instruction_ready = true;
        ibus_delay = waits;
      }
    } else if (!core.ibus.fetch_enable) {
      core.ibus.instruction_ready = false;
    }

    // --- DBus protocol: strobe-based, ready for one cycle. -----------------
    if (core.dbus.enable && !core.dbus.data_ready) {
      if (dbus_delay > 0) {
        --dbus_delay;  // wait state: core stalls in MemWait
      } else {
        dbus_delay = waits;
        if (core.dbus.write) {
          rtl_mem.storeStrobed(st, core.dbus.address, core.dbus.strobe,
                               core.dbus.wdata);
          core.dbus.rdata = eb_.constant(0, 32);
        } else {
          core.dbus.rdata =
              rtl_mem.loadStrobed(st, core.dbus.address, core.dbus.strobe);
        }
        core.dbus.data_ready = true;
      }
    } else if (!core.dbus.enable) {
      core.dbus.data_ready = false;
    }

    // --- Voter: on RTL retirement, step the ISS and compare. ---------------
    if (core.rvfi.valid) {
      st.countInstruction();
      if (time_steps) {
        if (rtl_instr_us_) rtl_instr_us_->record(rtl_accum_us);
        st.addTime("rtl", rtl_accum_us);
        rtl_accum_us = 0;
      }
      const auto iss_t0 =
          time_steps ? ObsClock::now() : ObsClock::time_point{};
      const iss::RetireInfo iss_result = [&] {
        const obs::PhaseTimer iss_phase(st.profiler(), "iss");
        return iss.step(st);
      }();
      if (time_steps) {
        const auto iss_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                ObsClock::now() - iss_t0)
                .count());
        if (iss_step_us_) iss_step_us_->record(iss_us);
        st.addTime("iss", iss_us);
      }
      // Trap-cause coverage: the ISS's trap decision is concrete control
      // state, so the tag is deterministic across jobs.
      if (iss_result.trap)
        st.addTag("trap:" + std::to_string(iss_result.cause));
      if (config_.on_retire) config_.on_retire(st, core.rvfi.info, iss_result);
      if (config_.enable_rvfi_monitor) {
        if (auto v = rtl_monitor.check(st, core.rvfi.info))
          st.fail("rvfi monitor (rtl): " + *v);
        if (auto v = iss_monitor.check(st, iss_result))
          st.fail("rvfi monitor (iss): " + *v);
      }
      std::optional<Mismatch> mismatch;
      {
        const obs::PhaseTimer voter_phase(st.profiler(), "voter");
        mismatch = voter.compare(st, core.rvfi.info, iss_result);
      }
      if (std::optional<Mismatch>& m = mismatch; m) {
        std::uint32_t pc = 0;
        if (core.rvfi.info.pc && core.rvfi.info.pc->isConstant())
          pc = static_cast<std::uint32_t>(core.rvfi.info.pc->constantValue());
        char pc_buf[16];
        std::snprintf(pc_buf, sizeof pc_buf, "%08x", pc);
        RVSYM_TRACE_PATH(st, obs::TraceEvent("voter")
                                 .str("verdict", "mismatch")
                                 .str("field", m->field)
                                 .str("pc", pc_buf)
                                 .str("detail", m->detail));
        st.fail(formatMismatchMessage(*m, pc));
      }
      if (++retired >= config_.instr_limit) {  // execution controller
        if (config_.on_cycle) config_.on_cycle();  // sample the last cycle
        return;
      }
    }
    if (config_.on_cycle) config_.on_cycle();
  }
  // Clock-cycle limit reached: also a normal path end (§IV-D).
}

}  // namespace rvsym::core
