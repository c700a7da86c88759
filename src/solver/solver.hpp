// PathSolver — the incremental bit-vector query interface used by the
// symbolic execution engine.
//
// One PathSolver accompanies one execution path: constraints are added
// permanently as the path progresses (they only ever grow), while branch
// feasibility checks are solved under assumption literals, which lets
// the underlying CDCL solver reuse everything it has learned on this
// path so far.
//
// check() answers through a layered pipeline (DESIGN.md §10), cheapest
// evidence first; every layer is sound, so the verdict — a semantic fact
// about (constraint set, assumption) — is identical no matter which
// layer produced it:
//
//   1. constant fast path (the builder folded the assumption),
//   2. exact-hash QueryCache (querycache.hpp): a verdict another path or
//      worker already solved for the identical canonical query,
//   3. counterexample cache (cexcache.hpp): the path-local or a shared
//      stored model is *evaluated* on the assumption (expr::eval), and
//      stored UNSAT cores answer by subset subsumption,
//   4. pre-bitblast rewrite (expr/rewrite.hpp): equality substitution
//      plus narrowing collapse assumptions the constraint set decides,
//   5. SAT solve — sliced to the constraints sharing variables with the
//      assumption and/or under per-conjunct selector assumptions for
//      UNSAT-core extraction, per SolverOptions.
//
// model() deliberately solves on a *fresh* solver built from the
// constraint set alone: the returned assignment is a pure function of
// (constraint set, assumption), independent of which feasibility checks
// ran — or were answered by any cache layer — beforehand.
// Concretizations and test vectors therefore stay byte-identical across
// worker counts, cache states and SolverOptions.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "expr/expr.hpp"
#include "expr/rewrite.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "solver/bitblast.hpp"
#include "solver/cexcache.hpp"
#include "solver/options.hpp"
#include "solver/querycache.hpp"
#include "solver/sat.hpp"

namespace rvsym::solver {

class SolverTelemetry;  // telemetry.hpp

enum class CheckResult { Sat, Unsat, Unknown };

struct QueryStats {
  std::uint64_t checks = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t unknown = 0;
  std::uint64_t constant_fastpath = 0;
  std::uint64_t model_queries = 0;
  std::uint64_t cache_hits = 0;    ///< checks answered by the exact-hash cache
  std::uint64_t cache_misses = 0;  ///< checks past the exact-hash cache
  // Disposition split for the acceleration layers (ISSUE 6): where the
  // checks that missed the exact-hash cache were actually answered.
  std::uint64_t cex_model_hits = 0;   ///< a stored model evaluated the assumption
  std::uint64_t cex_core_hits = 0;    ///< UNSAT-core subset subsumption
  std::uint64_t rewrite_decided = 0;  ///< assumption collapsed to a constant
  std::uint64_t sliced_solves = 0;    ///< solves restricted to a strict slice
  std::uint64_t sat_solves = 0;       ///< SAT solver invocations (check/checkPath)
  /// Wall time spent inside SAT solves of check()/checkPath(), in
  /// microseconds — the same population the solver.check_us histogram
  /// records, so per-path totals sum to the registry's total exactly.
  /// Zero unless timing is enabled (enableTiming / attachMetrics).
  std::uint64_t solve_us = 0;
};

class PathSolver {
 public:
  explicit PathSolver(expr::ExprBuilder& eb);

  /// Selects the acceleration layers (default: all off, the plain
  /// incremental solver). Must be called before the first
  /// addConstraint(): slicing and core extraction switch the solver into
  /// selector-assumption mode, a structural choice made as constraints
  /// arrive.
  void setOptions(const SolverOptions& opts) { opts_ = opts; }
  const SolverOptions& options() const { return opts_; }

  /// Attaches the shared cross-path verdict cache. `hasher` must be
  /// owned by the same thread as this solver (it is not thread-safe)
  /// and must outlive it; `cache` may be shared across threads and may
  /// be null to attach the hasher alone (the counterexample cache and
  /// telemetry key off the same hasher).
  void attachCache(QueryCache* cache, CanonicalHasher* hasher) {
    cache_ = cache;
    hasher_ = hasher;
  }

  /// Attaches the shared counterexample/subsumption cache (cexcache.hpp).
  /// Only consulted when options().cex_cache is set.
  void attachCexCache(CexCache* cex) { cex_ = cex; }

  /// Attaches the metrics registry: every SAT solve records latency into
  /// the "solver.check_us" histogram, and the acceleration layers count
  /// into "solver.cex_model_hits" / "solver.cex_core_hits" /
  /// "solver.rewrite_decided" / "solver.sliced_solves". Cache hits and
  /// constant fast paths never reach the solver and are not in the
  /// histogram. Implies enableTiming(true).
  void attachMetrics(obs::MetricsRegistry* registry);

  /// Accumulates stats().solve_us across SAT solves (one clock pair per
  /// solve). Off by default so untimed hot paths never read the clock;
  /// the engine switches it on when a trace sink wants per-path
  /// solver-time attribution.
  void enableTiming(bool on) { timing_ = timing_ || on; }

  /// Attaches shared per-query telemetry (telemetry.hpp): every solved
  /// check reports hash, node/var/clause counts, split bitblast/SAT
  /// timings, verdict and cache disposition, and slow queries are dumped
  /// to the corpus. Must be attached before the first addConstraint()
  /// (the running canonical set hash starts then). Implies
  /// enableTiming(true).
  void attachTelemetry(SolverTelemetry* telemetry) {
    telemetry_ = telemetry;
    timing_ = timing_ || telemetry != nullptr;
  }

  /// Attaches the phase profiler: check()/checkPath()/model() run under
  /// a "solver" phase, nesting inside whatever phase the caller holds.
  void attachProfiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  /// Permanently conjoins `cond` (width 1) to the path condition.
  /// Returns false if the path condition became syntactically unsat.
  /// Bit-blasting is deferred until a check actually needs the SAT
  /// solver, so checks answered by a cache layer never pay for it.
  bool addConstraint(const expr::ExprRef& cond);

  /// Is `assumption` satisfiable together with all constraints so far?
  /// `max_conflicts` of 0 means unbounded. Nonzero budgets bypass every
  /// cache layer (an Unknown is budget-dependent, not a semantic fact).
  CheckResult check(const expr::ExprRef& assumption,
                    std::uint64_t max_conflicts = 0);

  /// Is the current path condition itself satisfiable?
  CheckResult checkPath(std::uint64_t max_conflicts = 0);

  /// Solves the path condition (optionally plus `assumption`) and returns
  /// a satisfying assignment covering every variable created in the
  /// builder (unconstrained variables default to 0).
  std::optional<expr::Assignment> model(
      const expr::ExprRef& assumption = nullptr);

  const std::vector<expr::ExprRef>& constraints() const { return constraints_; }
  const QueryStats& stats() const { return stats_; }
  const SatSolver::Stats& satStats() const { return sat_.stats(); }

 private:
  /// The hasher keys the cache and the telemetry; an attached cache
  /// brings its own (worker-owned), telemetry without a cache falls back
  /// to the solver-private one.
  CanonicalHasher* activeHasher() {
    return hasher_ ? hasher_ : &own_hasher_;
  }
  bool hashingConstraints() const {
    return cache_ != nullptr || telemetry_ != nullptr || cex_ != nullptr;
  }

  /// Blasts constraints added since the last flush: selector mode keeps
  /// one literal per conjunct (solved as assumptions), legacy mode
  /// asserts unit clauses.
  void flushBlast();

  // Union-find over variable ids, maintained per added constraint;
  // constraints in the same component share variables transitively.
  std::uint64_t ufFind(std::uint64_t v);
  /// Indices of the constraints var-connected to the assumption.
  void computeSlice(const expr::ExprRef& assumption,
                    std::vector<std::size_t>* out);

  /// Rebuilds a builder-id assignment from a stored canonical model.
  expr::Assignment translateModel(const CexCache::Model& m);
  /// Reads the full model off the incremental solver after a Sat solve
  /// whose assumption set covered every conjunct; makes it the local
  /// model.
  void harvestLocalModel();
  /// Publishes the local model to the shared cache under the current set
  /// hash and (when `assumption_hash`) under set ∪ {assumption} — the
  /// set the engine is about to create by conjoining the assumption.
  void shareLocalModel(const CanonHash* assumption_hash);
  /// Stores an UNSAT core mapped back from the final conflict; falls
  /// back to the full assumed element set when minimization is off or a
  /// literal cannot be attributed.
  void storeCore(Lit assumption_lit, const CanonHash* assumption_hash,
                 const std::vector<std::size_t>& solved_conjuncts);
  void recordAnswered(const CanonHash& key, const expr::ExprRef& assumption,
                      CheckResult verdict, int disposition);

  expr::ExprBuilder& eb_;
  SatSolver sat_;
  BitBlaster blaster_;
  std::vector<expr::ExprRef> constraints_;
  QueryStats stats_;
  QueryCache* cache_ = nullptr;
  CanonicalHasher* hasher_ = nullptr;
  CanonicalHasher own_hasher_;
  SolverTelemetry* telemetry_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::Histogram* check_latency_ = nullptr;
  bool timing_ = false;
  CanonHash constraint_set_hash_;  ///< running canonical set hash

  SolverOptions opts_ = SolverOptions::none();
  CexCache* cex_ = nullptr;
  obs::Counter* m_cex_model_ = nullptr;
  obs::Counter* m_cex_core_ = nullptr;
  obs::Counter* m_rewrite_ = nullptr;
  obs::Counter* m_sliced_ = nullptr;

  std::vector<CanonHash> constraint_hashes_;  ///< per conjunct, when hashing
  expr::SubstMap subst_;                      ///< variables pinned by equalities
  std::vector<std::vector<std::uint64_t>> constraint_vars_;  ///< per conjunct
  std::vector<std::uint64_t> uf_parent_;      ///< union-find, indexed by var id
  std::vector<Lit> conj_lits_;       ///< selector literal per conjunct
  std::unordered_map<int, std::size_t> lit_to_conj_;  ///< Lit.x -> conjunct
  std::size_t blasted_count_ = 0;    ///< constraints_ prefix already blasted
  std::size_t selector_conjuncts_ = 0;  ///< non-constant conjuncts

  /// Most recent full-set satisfying assignment; invalidated when a new
  /// conjunct evaluates false under it. Variables created later read as
  /// 0 under expr::evaluate, matching the zero-extension a stored model
  /// gets, so validity is preserved as the path grows.
  expr::Assignment local_model_;
  bool local_model_valid_ = false;
};

}  // namespace rvsym::solver
