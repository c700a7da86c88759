// Hybrid verification — the paper's future work ("we plan to focus on
// hybrid techniques combining symbolic execution with fuzzing to provide
// a scalable and comprehensive verification methodology").
//
// Strategy: spend a cheap concrete-random budget first (high throughput,
// catches broad faults almost immediately), then fall back to the
// symbolic engine for the corner cases random testing cannot reach.
// The report records which phase found the mismatch and the combined
// cost, so the hybrid can be compared against either pure technique.
#pragma once

#include "core/cosim.hpp"
#include "fuzz/fuzzer.hpp"
#include "symex/engine.hpp"

namespace rvsym::fuzz {

struct HybridOptions {
  FuzzOptions fuzz;                ///< phase-1 budget
  symex::EngineOptions symex;      ///< phase-2 budget

  HybridOptions() {
    fuzz.max_tests = 20000;
    fuzz.max_seconds = 5;
    symex.stop_on_error = true;
    symex.max_seconds = 120;
  }
};

struct HybridReport {
  enum class FoundBy { None, Fuzzing, Symbolic };
  FoundBy found_by = FoundBy::None;
  bool found() const { return found_by != FoundBy::None; }
  double fuzz_seconds = 0;
  double symex_seconds = 0;
  double totalSeconds() const { return fuzz_seconds + symex_seconds; }
  std::uint64_t fuzz_tests = 0;
  std::uint64_t symex_paths = 0;
  std::string message;
};

/// Runs the two phases against `config` (which carries the DUT bugs /
/// injected faults and scenario constraints).
HybridReport runHybrid(const core::CosimConfig& config,
                       const HybridOptions& options);

}  // namespace rvsym::fuzz
