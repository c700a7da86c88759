// Ablation for the layered solver-acceleration stack (DESIGN.md §10):
// counterexample caching, UNSAT-core subsumption, pre-bitblast rewrite
// and independent-constraint slicing, each individually toggled via
// SolverOptions so the contribution of every layer is isolated.
//
// Two claims are checked per configuration:
//   * soundness/determinism — the engine report (path counts, decision-
//     stage counters, solver checks, per-path decisions and test
//     vectors) is byte-identical to the --solver-opt=none baseline: the
//     layers change how verdicts are obtained, never which;
//   * acceleration — the full stack answers a substantial share of
//     checks without a SAT solve (the per-layer disposition counters
//     are reported per row).
//
// Workload: the Table II-style free exploration (RV32I scenario,
// instruction limit 1, fixed path budget) plus one E5 hunt — the same
// solver traffic shape the paper's runs generate.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/cosim.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "harness/reporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "solver/options.hpp"
#include "symex/engine.hpp"

namespace {

using namespace rvsym;

core::CosimConfig baseConfig() {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  cfg.num_symbolic_regs = 2;
  cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
  return cfg;
}

struct ConfigRun {
  std::string spec;
  symex::EngineReport report;
  symex::EngineReport hunt;  ///< the E5 hunt's report
  std::uint64_t solver_us = 0;
  std::uint64_t sat_solves = 0;  ///< checks that reached the SAT solver
  std::uint64_t cex_model = 0, cex_core = 0, rewrites = 0, sliced = 0;
};

ConfigRun runConfig(const std::string& spec) {
  ConfigRun r;
  r.spec = spec;
  solver::SolverOptions sopt;
  std::string err;
  if (!solver::parseSolverOpt(spec, &sopt, &err)) {
    std::fprintf(stderr, "bad spec %s: %s\n", spec.c_str(), err.c_str());
    std::exit(2);
  }
  obs::MetricsRegistry reg;

  {  // Free exploration.
    core::CosimConfig cfg = baseConfig();
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = 400;
    opts.max_seconds = 120;
    opts.solver_opt = sopt;
    opts.metrics = &reg;
    symex::Engine engine(opts);
    r.report = engine.run(core::cosimFactory(cfg));
  }
  {  // E5 hunt (stop at the mismatch).
    core::CosimConfig cfg = baseConfig();
    fault::errorById("E5").apply(cfg);
    symex::EngineOptions opts;
    opts.stop_on_error = true;
    opts.max_paths = 3000;
    opts.max_seconds = 60;
    opts.solver_opt = sopt;
    opts.metrics = &reg;
    symex::Engine engine(opts);
    r.hunt = engine.run(core::cosimFactory(cfg));
  }

  for (const symex::PathRecord& p : r.report.paths) r.solver_us += p.solver_us;
  for (const symex::PathRecord& p : r.hunt.paths) r.solver_us += p.solver_us;
  r.sat_solves = reg.histogram("solver.check_us").count();
  r.cex_model = reg.counter("solver.cex_model_hits").get();
  r.cex_core = reg.counter("solver.cex_core_hits").get();
  r.rewrites = reg.counter("solver.rewrite_decided").get();
  r.sliced = reg.counter("solver.sliced_solves").get();
  return r;
}

/// Deterministic-report equality: every field of the EngineReport
/// contract except the timing-dependent ones (seconds, qcache_*,
/// solver_us). Mirrors what the --jobs parity tests compare.
bool sameReport(const symex::EngineReport& a, const symex::EngineReport& b,
                std::string* why) {
  const auto fail = [&](const char* field) {
    if (why) *why = field;
    return false;
  };
  if (a.completed_paths != b.completed_paths) return fail("completed_paths");
  if (a.error_paths != b.error_paths) return fail("error_paths");
  if (a.infeasible_paths != b.infeasible_paths)
    return fail("infeasible_paths");
  if (a.limited_paths != b.limited_paths) return fail("limited_paths");
  if (a.unexplored_forks != b.unexplored_forks)
    return fail("unexplored_forks");
  if (a.instructions != b.instructions) return fail("instructions");
  if (a.test_vectors != b.test_vectors) return fail("test_vectors");
  if (a.branches != b.branches) return fail("branches");
  if (a.const_decided != b.const_decided) return fail("const_decided");
  if (a.knownbits_decided != b.knownbits_decided)
    return fail("knownbits_decided");
  if (a.solver_decided != b.solver_decided) return fail("solver_decided");
  if (a.solver_checks != b.solver_checks) return fail("solver_checks");
  if (a.paths.size() != b.paths.size()) return fail("paths.size");
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    const symex::PathRecord& pa = a.paths[i];
    const symex::PathRecord& pb = b.paths[i];
    if (pa.end != pb.end) return fail("path.end");
    if (pa.decisions != pb.decisions) return fail("path.decisions");
    if (pa.has_test != pb.has_test) return fail("path.has_test");
    if (pa.test.values.size() != pb.test.values.size())
      return fail("path.test.size");
    for (std::size_t j = 0; j < pa.test.values.size(); ++j) {
      if (pa.test.values[j].name != pb.test.values[j].name ||
          pa.test.values[j].width != pb.test.values[j].width ||
          pa.test.values[j].value != pb.test.values[j].value)
        return fail("path.test.value");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("solver_stack");
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];

  const std::vector<std::string> specs = {"none",    "cex",   "cex,cores",
                                          "rewrite", "slice", "all"};

  std::printf("SOLVER ACCELERATION STACK — PER-LAYER ABLATION\n\n");
  std::printf("%-10s | %9s %9s | %8s %8s %8s %8s | %10s %9s\n", "layers",
              "checks", "solves", "cexm", "cexc", "rw", "sliced", "solver[us]",
              "time[s]");
  std::printf("%s\n", std::string(96, '-').c_str());

  obs::JsonWriter w;  // --out payload: one row per configuration
  w.beginObject();
  w.key("rows").beginArray();

  bool claims_ok = true;
  ConfigRun baseline;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ConfigRun r = runConfig(specs[i]);
    const double seconds = r.report.seconds + r.hunt.seconds;
    std::printf("%-10s | %9llu %9llu | %8llu %8llu %8llu %8llu | %10llu "
                "%9.3f\n",
                r.spec.c_str(),
                static_cast<unsigned long long>(r.report.solver_checks +
                                                r.hunt.solver_checks),
                static_cast<unsigned long long>(r.sat_solves),
                static_cast<unsigned long long>(r.cex_model),
                static_cast<unsigned long long>(r.cex_core),
                static_cast<unsigned long long>(r.rewrites),
                static_cast<unsigned long long>(r.sliced),
                static_cast<unsigned long long>(r.solver_us), seconds);

    if (i == 0) {
      baseline = r;
    } else {
      // The soundness claim: identical deterministic reports.
      std::string why;
      if (!sameReport(baseline.report, r.report, &why) ||
          !sameReport(baseline.hunt, r.hunt, &why)) {
        std::printf("  !! report diverges from none baseline at %s\n",
                    why.c_str());
        claims_ok = false;
      }
    }

    w.beginObject();
    w.field("solver_opt", r.spec);
    w.field("solver_checks", r.report.solver_checks + r.hunt.solver_checks);
    w.field("sat_solves", r.sat_solves);
    w.field("cex_model_hits", r.cex_model);
    w.field("cex_core_hits", r.cex_core);
    w.field("rewrite_decided", r.rewrites);
    w.field("sliced_solves", r.sliced);
    w.field("solver_us", r.solver_us);
    w.field("seconds", seconds);
    w.field("e5_found", r.hunt.error_paths > 0);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  std::printf(
      "\nclaims checked:\n"
      "  * every configuration reproduces the --solver-opt=none report\n"
      "    byte-for-byte (paths, decisions, test vectors) — the layers\n"
      "    are sound;\n"
      "  * per-layer disposition counters isolate each layer's share of\n"
      "    answered checks.\n");
  std::printf("%s\n", claims_ok ? "all claims hold" : "CLAIMS VIOLATED");

  if (!out_path.empty()) {
    reporter.param("configs", static_cast<std::uint64_t>(specs.size()))
        .param("claims_checked", std::string("report-parity-across-layers"))
        .counter("baseline_solver_us", baseline.solver_us)
        .ok(claims_ok)
        .payload(w.str());
    reporter.writeFile(out_path);
  }
  return claims_ok ? 0 : 1;
}
