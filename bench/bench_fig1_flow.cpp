// Regenerates Fig. 1 of the paper: the end-to-end tool flow. The figure
// is a diagram, not a measurement; this bench exercises each stage of
// the substitute flow and reports the per-stage cost so the pipeline
// structure is visible:
//
//   paper:  SpinalHDL --SBT--> Verilog --verilator--> RTL core (C++) -+
//           C++ ISS description --configurator--> ISS (C++)          -+-> LLVM --> KLEE
//   here:   processor configuration --> RTL core model + ISS model   -+
//           --> co-simulation binding --> symbolic execution engine --> test vectors
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cosim.hpp"
#include "core/session.hpp"
#include "expr/builder.hpp"
#include "harness/reporter.hpp"
#include "rv32/encode.hpp"

namespace {

using namespace rvsym;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig1_flow");
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  std::printf("FIG. 1 — TOOL-FLOW STAGES (substitute flow, per-stage cost)\n\n");

  // Stage 1: processor configuration description.
  auto t0 = Clock::now();
  core::CosimConfig config;             // authentic MicroRV32 + VP
  config.instr_limit = 1;
  const double t_config = secondsSince(t0);

  // Stage 2: "SBT + verilator": elaborate the RTL core model and run one
  // concrete sanity instruction through it (the moral equivalent of
  // compiling the verilated core).
  t0 = Clock::now();
  expr::ExprBuilder eb;
  {
    symex::ExecState st(eb, {}, {});
    rtl::MicroRv32Core core(eb, config.rtl);
    core.regs().set(eb, 1, eb.constant(20, 32));
    core.regs().set(eb, 2, eb.constant(22, 32));
    bool retired = false;
    for (int i = 0; i < 50 && !retired; ++i) {
      core.tick(st);
      if (core.ibus.fetch_enable && !core.ibus.instruction_ready) {
        core.ibus.instruction = eb.constant(rv32::enc::add(3, 1, 2), 32);
        core.ibus.instruction_ready = true;
      }
      retired = core.rvfi.valid;
    }
    std::printf("  RTL core elaboration + smoke instruction: %s\n",
                retired ? "ok" : "FAILED");
  }
  const double t_rtl = secondsSince(t0);

  // Stage 3: "configurator": elaborate the ISS and run the same sanity
  // instruction.
  t0 = Clock::now();
  {
    symex::ExecState st(eb, {}, {});
    core::SymbolicInstrMemory imem([](symex::ExecState& s,
                                      const expr::ExprRef& w) {
      s.assume(s.builder().eqConst(w, rv32::enc::add(3, 1, 2)));
    });
    core::InitialImage image;
    core::SymbolicDataMemory dmem(image);
    iss::Iss iss(eb, imem, dmem, config.iss);
    iss.regs().set(eb, 1, eb.constant(20, 32));
    iss.regs().set(eb, 2, eb.constant(22, 32));
    const iss::RetireInfo r = iss.step(st);
    // The rd index is a field of the (assume-pinned) symbolic word, so the
    // register holds a mux expression; check semantically.
    const bool ok = !r.trap && st.mustBeTrue(eb.eq(iss.regs().get(3),
                                                   eb.constant(42, 32)));
    std::printf("  ISS elaboration + smoke instruction:      %s\n",
                ok ? "ok" : "FAILED");
  }
  const double t_iss = secondsSince(t0);

  // Stage 4: co-simulation binding (testbench main + voter + memories).
  t0 = Clock::now();
  const symex::ProgramFactory cosim = core::cosimFactory(config);
  const double t_bind = secondsSince(t0);

  // Stage 5: symbolic execution (the KLEE box) — bounded exploration.
  t0 = Clock::now();
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 300;
  symex::Engine engine(opts);
  const symex::EngineReport report = engine.run(cosim);
  const double t_symex = secondsSince(t0);

  // Stage 6: test-vector emission.
  std::printf("  symbolic exploration:                     %llu paths, "
              "%llu mismatch paths\n",
              static_cast<unsigned long long>(report.totalPaths()),
              static_cast<unsigned long long>(report.error_paths));

  std::printf("\n%-44s %10s\n", "flow stage", "time [s]");
  std::printf("%s\n", std::string(56, '-').c_str());
  std::printf("%-44s %10.4f\n", "processor configuration description", t_config);
  std::printf("%-44s %10.4f\n", "RTL core elaboration (SBT+verilator box)", t_rtl);
  std::printf("%-44s %10.4f\n", "ISS elaboration (configurator box)", t_iss);
  std::printf("%-44s %10.4f\n", "co-simulation binding (main/voter/memories)",
              t_bind);
  std::printf("%-44s %10.4f\n", "symbolic execution engine (KLEE box)", t_symex);
  std::printf("%-44s %10llu\n", "emitted test vectors",
              static_cast<unsigned long long>(report.test_vectors));

  const bool ok = report.error_paths > 0;  // the buggy core must yield findings
  if (!out_path.empty()) {
    reporter.metric("config_s", t_config)
        .metric("rtl_elaboration_s", t_rtl)
        .metric("iss_elaboration_s", t_iss)
        .metric("cosim_binding_s", t_bind)
        .metric("symex_s", t_symex)
        .counter("paths", report.totalPaths())
        .counter("error_paths", report.error_paths)
        .counter("test_vectors", report.test_vectors)
        .ok(ok);
    reporter.writeFile(out_path);
  }
  return ok ? 0 : 1;
}
