// Coverage growth of the generated test set — the paper's second output
// ("generate test vectors in order to find bugs and create a high
// coverage test set"). Explores the fixed processor pair in increasing
// path budgets and reports how quickly the emitted vectors cover the
// RV32I+Zicsr instruction space, then prints the final coverage summary
// and any holes.
#include <cstdio>

#include "core/cosim.hpp"
#include "core/coverage.hpp"
#include "expr/builder.hpp"
#include "symex/engine.hpp"

int main() {
  using namespace rvsym;

  std::printf("test-set coverage growth (fixed DUT, one symbolic "
              "instruction)\n\n");
  std::printf("%-8s %10s %10s %14s %8s\n", "paths", "opcodes", "CSRs",
              "distinct-words", "illegal");
  std::printf("%s\n", std::string(56, '-').c_str());

  core::CoverageCollector final_cov;
  for (std::uint64_t budget : {25u, 50u, 100u, 200u, 400u, 800u}) {
    core::CosimConfig cfg;
    cfg.rtl = rtl::fixedRtlConfig();
    cfg.iss.csr = iss::CsrConfig::specCorrect();
    cfg.instr_limit = 1;

    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = budget;
    symex::Engine engine(opts);
    const symex::EngineReport report = engine.run(core::cosimFactory(cfg));

    core::CoverageCollector cov;
    cov.addReport(report);
    std::printf("%-8llu %7zu/48 %10zu %14zu %8s\n",
                static_cast<unsigned long long>(budget), cov.opcodesCovered(),
                cov.csrAddressesCovered(), cov.distinctWords(),
                cov.coversIllegal() ? "yes" : "no");
    if (budget == 800) final_cov.addReport(report);
  }

  std::printf("\n%s", final_cov.summary().c_str());
  return final_cov.opcodeCoveragePercent() >= 75.0 ? 0 : 1;
}
