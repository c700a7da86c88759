// VerificationSession — the top-level driver: wires a CoSimulation into
// the symbolic execution engine, runs the exploration and distills the
// error paths into classified findings. One session corresponds to one
// "run KLEE on the co-simulation" invocation of the paper.
#pragma once

#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/cosim.hpp"
#include "symex/engine.hpp"

namespace rvsym::core {

struct SessionOptions {
  CosimConfig cosim;
  /// Engine configuration. `engine.jobs > 1` explores on that many
  /// worker threads (one co-sim harness per worker); the report is
  /// deterministic and count-identical to a single-threaded run. Any
  /// CosimConfig hooks (instr_constraint, post_init_hook) are then
  /// invoked concurrently from multiple workers and must be
  /// re-entrant — the built-in scenario constraints all are.
  symex::EngineOptions engine;

  SessionOptions() {
    // Verification sweeps want every mismatch, not just the first.
    engine.stop_on_error = false;
  }
};

struct SessionReport {
  std::vector<Finding> findings;  ///< deduplicated, first-seen order
  symex::EngineReport engine;
};

class VerificationSession {
 public:
  /// The engine builds every worker's co-simulation on a builder it owns,
  /// so `eb` is not used; the parameter keeps existing callers compiling.
  VerificationSession(expr::ExprBuilder& eb, SessionOptions options);

  SessionReport run();

  const SessionOptions& options() const { return options_; }

 private:
  SessionOptions options_;
};

/// Renders findings as a Table-I-style text table.
std::string renderFindingsTable(const std::vector<Finding>& findings);

}  // namespace rvsym::core
