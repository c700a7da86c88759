// Test-vector replay — the KLEE "ktest" workflow (the right-hand output
// of Fig. 1): a bounded symbolic exploration of the buggy core emits one
// concrete test vector per path; this example then REPLAYS each
// mismatch vector through a fresh co-simulation with the instruction
// words and register inputs pinned to the recorded values, confirming
// every mismatch reproduces deterministically.
#include <cstdio>
#include <vector>

#include "core/cosim.hpp"
#include "core/symmem.hpp"
#include "expr/builder.hpp"
#include "rv32/instr.hpp"
#include "symex/engine.hpp"

namespace {

using namespace rvsym;

/// Pins instruction-memory words to the recorded vector.
core::InstrConstraint pinInstructions(const symex::TestVector& tv) {
  return [&tv](symex::ExecState& st, const expr::ExprRef& instr) {
    if (auto v = tv.lookup(instr->name()))
      st.assume(st.builder().eqConst(instr, *v));
  };
}

/// Pins the symbolic register inputs to the recorded vector.
std::function<void(symex::ExecState&)> pinRegisters(
    const symex::TestVector& tv, unsigned num_symbolic_regs) {
  return [&tv, num_symbolic_regs](symex::ExecState& st) {
    expr::ExprBuilder& eb = st.builder();
    for (unsigned i = 1; i <= num_symbolic_regs; ++i) {
      const std::string name = "reg_x" + std::to_string(i);
      if (auto v = tv.lookup(name))
        st.assume(eb.eqConst(eb.variable(name, 32), *v));
    }
  };
}

}  // namespace

int main() {
  std::printf("phase 1: symbolic exploration of the authentic MicroRV32 "
              "model (test-vector generation)\n");

  core::CosimConfig cfg;  // authentic buggy RTL vs authentic VP ISS
  cfg.instr_limit = 1;

  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 250;
  symex::Engine engine(opts);
  const symex::EngineReport report = engine.run(core::cosimFactory(cfg));

  std::vector<const symex::PathRecord*> mismatches;
  for (const symex::PathRecord& p : report.paths)
    if (p.end == symex::PathEnd::Error && p.has_test)
      mismatches.push_back(&p);

  std::printf("  %llu paths, %zu mismatch vectors emitted\n\n",
              static_cast<unsigned long long>(report.totalPaths()),
              mismatches.size());

  std::printf("phase 2: replaying every mismatch vector (pinned inputs)\n");
  unsigned reproduced = 0;
  unsigned shown = 0;
  for (const symex::PathRecord* p : mismatches) {
    core::CosimConfig replay_cfg;  // same authentic configuration
    replay_cfg.instr_limit = 1;
    replay_cfg.instr_constraint = pinInstructions(p->test);
    replay_cfg.post_init_hook = pinRegisters(p->test, replay_cfg.num_symbolic_regs);

    symex::EngineOptions replay_opts;
    replay_opts.stop_on_error = true;
    replay_opts.max_paths = 64;  // pinned inputs leave almost nothing to fork
    replay_opts.collect_test_vectors = false;
    symex::Engine replay_engine(replay_opts);
    const symex::EngineReport rr =
        replay_engine.run(core::cosimFactory(replay_cfg));

    const bool ok = rr.error_paths > 0;
    reproduced += ok ? 1 : 0;
    if (shown < 5) {
      const auto word = p->test.lookup(
          core::SymbolicInstrMemory::variableName(0x80000000));
      std::printf("  %-40s -> %s\n",
                  word ? rv32::disassemble(static_cast<std::uint32_t>(*word))
                             .c_str()
                       : "?",
                  ok ? "reproduced" : "NOT reproduced");
      ++shown;
    }
  }
  if (mismatches.size() > shown)
    std::printf("  ... and %zu more\n", mismatches.size() - shown);

  std::printf("\nreplay result: %u / %zu mismatch vectors reproduced\n",
              reproduced, mismatches.size());
  return reproduced == mismatches.size() && !mismatches.empty() ? 0 : 1;
}
