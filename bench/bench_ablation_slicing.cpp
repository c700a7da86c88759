// Ablation for the sliced symbolic registers (paper §IV-C.3 and §V-A):
// the paper argues that (a) making only the memory symbolic needs
// instruction traces of length >= 2 and misses register-dependent bugs
// at trace length 1, and (b) making the whole register bank symbolic
// blows up the state space ("a non-optimized symbolic execution requires
// more than 30 days of runtime"), while 2 symbolic registers suffice for
// RV32I.
//
// Measured here per slice size {0, 2, 4, 8, 16, 31}:
//   * whether the register-value-dependent injected error E4 (SUB
//     stuck-at bit) is found at instruction limit 1,
//   * exploration cost for a fixed free exploration budget
//     (paths / instructions / solver queries / time).
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cosim.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "harness/reporter.hpp"
#include "obs/json.hpp"
#include "symex/engine.hpp"

namespace {

using namespace rvsym;

core::CosimConfig baseConfig(unsigned num_symbolic_regs) {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  cfg.num_symbolic_regs = num_symbolic_regs;
  cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("ablation_slicing");
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  obs::JsonWriter w;  // --out payload: one row per slice size
  w.beginObject();
  w.key("rows").beginArray();
  // The paper's claim (§V-A): slice 0 hides the register-dependent
  // fault, slice >= 2 exposes it.
  bool claims_ok = true;
  std::printf("ABLATION — SLICED SYMBOLIC REGISTERS\n\n");
  std::printf("%-10s | %-12s %9s | %8s %9s %12s %9s\n", "symbolic",
              "E4 found?", "time[s]", "paths", "partial", "solver-chk",
              "time[s]");
  std::printf("%-10s | %-12s %9s | %8s %9s %12s %9s\n", "registers",
              "(limit 1)", "", "(free exploration, 600-path budget)", "", "",
              "");
  std::printf("%s\n", std::string(84, '-').c_str());

  for (unsigned slice : {0u, 2u, 4u, 8u, 16u, 31u}) {
    // Part A: does the slice expose the register-dependent fault E4?
    bool e4_found = false;
    double e4_time = 0;
    {
      core::CosimConfig cfg = baseConfig(slice);
      fault::errorById("E4").apply(cfg);
      symex::EngineOptions opts;
      opts.stop_on_error = true;
      opts.max_paths = 3000;
      opts.max_seconds = 60;
      symex::Engine engine(opts);
      const auto report = engine.run(core::cosimFactory(cfg));
      e4_found = report.error_paths > 0;
      e4_time = report.seconds;
    }

    // Part B: cost of a fixed-budget free exploration.
    core::CosimConfig cfg = baseConfig(slice);
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = 600;
    opts.max_seconds = 120;
    opts.max_stored_paths = 1;
    symex::Engine engine(opts);
    const auto report = engine.run(core::cosimFactory(cfg));

    std::printf("%-10u | %-12s %9.3f | %8llu %9llu %12llu %9.3f\n", slice,
                e4_found ? "found" : "NOT FOUND", e4_time,
                static_cast<unsigned long long>(report.totalPaths()),
                static_cast<unsigned long long>(report.partialPaths()),
                static_cast<unsigned long long>(report.solver_checks),
                report.seconds);
    claims_ok = claims_ok && (e4_found == (slice >= 2));
    w.beginObject();
    w.field("symbolic_regs", slice);
    w.field("e4_found", e4_found);
    w.field("e4_seconds", e4_time);
    w.field("paths", report.totalPaths());
    w.field("partial_paths", report.partialPaths());
    w.field("solver_checks", report.solver_checks);
    w.field("seconds", report.seconds);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  std::printf(
      "\npaper claims checked:\n"
      "  * slice 0 (memory-only symbolic): register-dependent faults are\n"
      "    invisible at trace length 1 (E4 NOT FOUND) — symbolic registers\n"
      "    avoid the need for length-2 traces;\n"
      "  * slice 2 suffices for RV32I (no instruction has more than two\n"
      "    source registers);\n"
      "  * larger slices only add exploration cost.\n");
  if (!out_path.empty()) {
    reporter.param("claims_checked", std::string("e4-visible-iff-slice>=2"))
        .ok(claims_ok)
        .payload(w.str());
    reporter.writeFile(out_path);
  }
  return 0;
}
