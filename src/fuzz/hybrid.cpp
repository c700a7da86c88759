#include "fuzz/hybrid.hpp"

namespace rvsym::fuzz {

HybridReport runHybrid(const core::CosimConfig& config,
                       const HybridOptions& options) {
  HybridReport report;

  // Phase 1: concrete random testing.
  CosimFuzzer fuzzer;
  const FuzzReport fr = fuzzer.run(config, options.fuzz);
  report.fuzz_seconds = fr.seconds;
  report.fuzz_tests = fr.tests;
  if (fr.found) {
    report.found_by = HybridReport::FoundBy::Fuzzing;
    report.message = fr.mismatch_message;
    return report;
  }

  // Phase 2: symbolic exploration.
  symex::Engine engine(options.symex);
  const symex::EngineReport sr = engine.run(core::cosimFactory(config));
  report.symex_seconds = sr.seconds;
  report.symex_paths = sr.totalPaths();
  if (sr.error_paths > 0) {
    report.found_by = HybridReport::FoundBy::Symbolic;
    if (const symex::PathRecord* err = sr.firstError())
      report.message = err->message;
  }
  return report;
}

}  // namespace rvsym::fuzz
