// Slow-query corpus — the on-disk exchange format for solver queries.
//
// When solver telemetry (telemetry.hpp) sees a check cross the slow-query
// latency threshold it dumps the query here: a self-contained text file
// (rvsym-query-v1) carrying the serialized constraint/assumption DAGs
// (expr/serialize.hpp) plus the verdict and timings observed online, and
// a companion DIMACS CNF of the same query for external SAT solvers.
// rvsym-profile loads these files offline to re-check the verdict, time
// the solve on the current solver, and shrink the query with ddmin over
// the constraint conjuncts.
//
// File layout (q_<canonhash>.query):
//
//   rvsym-query-v1
//   verdict unsat
//   sat_us 12345
//   bitblast_us 210
//   nodes 87
//   constraints 3
//   assume 1
//   <blank line>
//   n0 var instr 32
//   ...
//   root n14        <- first `constraints` roots are conjuncts,
//   root n17           the trailing root (iff `assume 1`) the assumption
//
// The format deliberately avoids JSON: parsing it needs nothing above
// rvsym_solver, so the corpus reader/replayer stays inside this library
// with no dependency on the obs analysis layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "expr/builder.hpp"
#include "expr/expr.hpp"
#include "solver/solver.hpp"

namespace rvsym::solver {

struct CorpusQuery {
  std::vector<expr::ExprRef> constraints;
  expr::ExprRef assumption;  ///< null = path-feasibility (checkPath) query
  CheckResult verdict = CheckResult::Unknown;
  std::uint64_t sat_us = 0;       ///< SAT time observed when dumped
  std::uint64_t bitblast_us = 0;  ///< bit-blast time observed when dumped
  std::uint64_t nodes = 0;        ///< unique expr nodes across all roots
};

const char* verdictName(CheckResult v);
std::optional<CheckResult> verdictByName(std::string_view s);

/// Unique node count of the union DAG rooted at `roots`.
std::uint64_t countUniqueNodes(const std::vector<expr::ExprRef>& roots);

/// Renders `q` in rvsym-query-v1 format. Empty string on failure
/// (unserializable variable name).
std::string formatQuery(const CorpusQuery& q);

/// Parses an rvsym-query-v1 document into `eb`.
std::optional<CorpusQuery> parseQuery(expr::ExprBuilder& eb,
                                      std::string_view text,
                                      std::string* error = nullptr);

/// Reads and parses one corpus file.
std::optional<CorpusQuery> loadQueryFile(expr::ExprBuilder& eb,
                                         const std::string& path,
                                         std::string* error = nullptr);

/// Re-solves the query from scratch on a fresh PathSolver. With
/// `solve_us`, reports the SAT time of the replay.
CheckResult replayQuery(expr::ExprBuilder& eb, const CorpusQuery& q,
                        std::uint64_t* solve_us = nullptr);

/// Replay configuration for the acceleration-aware overload: which
/// pipeline layers run (DESIGN.md §10) and, optionally, caches shared
/// across the queries of one corpus sweep — the offline stand-in for a
/// live run's cross-path reuse.
struct ReplayOptions {
  SolverOptions solver_opt = SolverOptions::none();
  QueryCache* query_cache = nullptr;  ///< may be null
  CexCache* cex_cache = nullptr;      ///< may be null
  /// Canonical hasher shared across queries (single-threaded replay);
  /// null = the solver's private hasher.
  CanonicalHasher* hasher = nullptr;
};

struct ReplayOutcome {
  CheckResult verdict = CheckResult::Unknown;
  std::uint64_t solve_us = 0;  ///< SAT time of this replay
  /// Which layer answered: "const" (constraint folding), "exact",
  /// "cex-model", "cex-core", "rewrite", "slice", or "solve" (a full
  /// SAT solve). Derived from the per-solver QueryStats — a fresh
  /// solver runs exactly one check, so the attribution is unambiguous.
  const char* via = "solve";
};

/// Acceleration-aware replay: like replayQuery but with the layered
/// pipeline configured by `opts`, reporting where the verdict came
/// from. Verdicts are identical to the plain replay for any
/// configuration (the layers are sound).
ReplayOutcome replayQueryOpt(expr::ExprBuilder& eb, const CorpusQuery& q,
                             const ReplayOptions& opts);

/// ddmin over the constraint conjuncts: returns a 1-minimal subset of
/// q.constraints whose replay verdict still equals q.verdict. With
/// `replays`, reports how many replay solves the search spent.
std::vector<expr::ExprRef> ddminConstraints(expr::ExprBuilder& eb,
                                            const CorpusQuery& q,
                                            std::uint64_t* replays = nullptr);

}  // namespace rvsym::solver
