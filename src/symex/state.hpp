// ExecState — one symbolic execution path.
//
// This is the paper's "symbolic execution interface": the co-simulation
// calls makeSymbolic (klee_make_symbolic), assume (klee_assume) and
// branches on symbolic conditions. Forking is replay-based: a path is
// identified by the sequence of solver-undetermined branch decisions it
// took; the engine re-runs the program with a forced decision prefix to
// explore an alternative.
//
// Decision recording invariant: a decision bit is recorded for every
// branch that reaches the solver stage (i.e. was not decided by constant
// folding or the known-bits fast path). Both one-sided and two-sided
// solver outcomes record a bit, so replays stay aligned; only two-sided
// branches push a pending fork.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "expr/expr.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "solver/telemetry.hpp"
#include "symex/knownbits.hpp"

namespace rvsym::symex {

/// Why a path stopped.
enum class PathEnd {
  Completed,   ///< program ran to its normal end (e.g. instruction limit)
  Error,       ///< ExecState::fail() — e.g. the voter found a mismatch
  Infeasible,  ///< an assume() contradicted the path constraints
  SolverLimit, ///< a solver budget was exhausted mid-path
  Budget,      ///< an engine budget (decisions per path) was exhausted
};

const char* pathEndName(PathEnd end);

/// Thrown to unwind the program when a path terminates early.
struct PathTerminated {
  PathEnd end;
  std::string message;
};

/// One named symbolic input with its solved concrete value (the KLEE
/// "ktest" analog).
struct TestValue {
  std::string name;
  unsigned width = 0;
  std::uint64_t value = 0;
};

struct TestVector {
  std::vector<TestValue> values;

  /// Value by name; nullopt if the vector has no such input.
  std::optional<std::uint64_t> lookup(const std::string& name) const;
};

/// Per-path statistics, aggregated by the engine.
struct PathStats {
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t const_decided = 0;
  std::uint64_t knownbits_decided = 0;
  std::uint64_t solver_decided = 0;
  std::uint64_t forks = 0;
  std::uint64_t assumes = 0;
  std::uint64_t concretizations = 0;
};

class ExecState {
 public:
  struct Limits {
    std::uint64_t max_decisions = 0;       // 0 = unlimited
    std::uint64_t solver_max_conflicts = 0;
    bool take_true_first = true;
    /// Disables the known-bits fast path (ablation benchmarking only).
    bool use_known_bits = true;
    /// Optional cross-path query cache (shared, thread-safe) plus the
    /// owning worker's canonical hasher (thread-private). Both or none.
    solver::QueryCache* query_cache = nullptr;
    solver::CanonicalHasher* query_hasher = nullptr;
    /// Optional metrics registry (shared, thread-safe): attaches the
    /// solver check-latency histogram to this path's solver.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional per-query solver telemetry (shared, thread-safe): hash,
    /// node/var/clause counts, bitblast/SAT split, slow-query corpus.
    solver::SolverTelemetry* telemetry = nullptr;
    /// Optional phase profiler (shared, thread-safe): the solver nests a
    /// "solver" phase, the co-simulation "rtl"/"iss"/"voter", the
    /// engine wraps each path in "path".
    obs::PhaseProfiler* profiler = nullptr;
    /// Buffer path-local trace events (see traceEvent below). Set by the
    /// engine iff a trace sink is configured.
    bool trace_path_events = false;
    /// Optional shared counterexample/subsumption cache (thread-safe).
    /// Needs query_hasher (or the solver's private hasher) for canonical
    /// keys.
    solver::CexCache* cex_cache = nullptr;
    /// Solver acceleration layers (DESIGN.md §10). Ignored when
    /// solver_max_conflicts != 0: budgeted runs bypass every cache layer
    /// anyway, so the plain incremental solver is kept.
    solver::SolverOptions solver_opt{};
  };

  ExecState(expr::ExprBuilder& eb, std::vector<bool> forced_decisions,
            Limits limits);

  expr::ExprBuilder& builder() { return eb_; }

  // --- The symbolic execution interface (paper §IV-C) ---------------------
  /// klee_make_symbolic: returns the (interned) symbolic variable `name`.
  expr::ExprRef makeSymbolic(const std::string& name, unsigned width);

  /// klee_assume: conjoins `cond` to the path constraints; terminates the
  /// path as Infeasible if the constraints become unsatisfiable.
  void assume(const expr::ExprRef& cond);

  /// Data-dependent branch; returns the direction taken on this path and
  /// may schedule the opposite direction as a pending fork.
  bool branch(const expr::ExprRef& cond);

  /// Pins `e` to a concrete value consistent with the path constraints
  /// (KLEE-style address concretization) and returns it.
  std::uint64_t concretize(const expr::ExprRef& e);

  /// Terminates this path as an Error (voter mismatch).
  [[noreturn]] void fail(std::string message);

  /// Terminates this path as Completed (e.g. execution-controller limit).
  [[noreturn]] void finish();

  // --- Queries -------------------------------------------------------------
  /// True iff `cond` holds on every assignment satisfying the path.
  bool mustBeTrue(const expr::ExprRef& cond);
  /// A model of the path constraints where `cond` is false, if any.
  std::optional<expr::Assignment> counterexample(const expr::ExprRef& cond);
  /// A model of the current path constraints.
  std::optional<expr::Assignment> pathModel();

  // --- Accounting ------------------------------------------------------------
  void countInstruction(std::uint64_t n = 1) { stats_.instructions += n; }
  const PathStats& stats() const { return stats_; }

  // --- Observability ----------------------------------------------------------
  /// True iff the engine wants path-local trace events buffered. Use the
  /// RVSYM_TRACE_PATH macro rather than calling traceEvent directly so
  /// event construction is skipped when tracing is off.
  bool tracingEnabled() const { return limits_.trace_path_events; }
  /// Phase profiler for this run (null when profiling is off) — the
  /// co-simulation opens its "rtl"/"iss"/"voter" phases against this.
  obs::PhaseProfiler* profiler() const { return limits_.profiler; }
  /// Buffers an event produced while executing this path (e.g. a voter
  /// verdict). The engine flushes the buffer to the trace sink at commit
  /// time, in deterministic commit order, with the path id attached —
  /// never from the (possibly speculative) executing thread.
  void traceEvent(obs::TraceEvent ev) {
    trace_events_.push_back(std::move(ev));
  }
  std::vector<obs::TraceEvent>& traceEvents() { return trace_events_; }

  /// Tags this path with a deterministic workload annotation (e.g.
  /// "voter:rd", "trap:2"). Tags are deduplicated and sorted by the
  /// engine, stored on the PathRecord and emitted with the path_end
  /// trace event — the offline analyzer's attribution keys. Cheap
  /// enough to record unconditionally (a handful per path).
  void addTag(std::string tag) {
    for (const std::string& t : tags_)
      if (t == tag) return;
    tags_.push_back(std::move(tag));
  }
  const std::vector<std::string>& tags() const { return tags_; }

  /// Accumulates wall time under a short key; the engine emits each
  /// accumulator as a "t_<key>_us" path_end field (timing-dependent by
  /// the trace contract). Used by the co-simulation for per-path RTL
  /// and ISS step-time attribution.
  void addTime(std::string_view key, std::uint64_t us) {
    for (auto& [k, v] : times_)
      if (k == key) {
        v += us;
        return;
      }
    times_.emplace_back(std::string(key), us);
  }
  const std::vector<std::pair<std::string, std::uint64_t>>& times() const {
    return times_;
  }

  // --- Engine internals -------------------------------------------------------
  const std::vector<bool>& decisions() const { return decisions_; }
  /// Pending forks discovered on this path: full decision prefixes for the
  /// unexplored directions, in discovery order.
  const std::vector<std::vector<bool>>& pendingForks() const {
    return pending_forks_;
  }
  /// Solves the final path constraints into a test vector covering the
  /// symbolic inputs created on *this* path (the KLEE ktest object set).
  std::optional<TestVector> solveTestVector();
  const solver::QueryStats& solverStats() const { return solver_.stats(); }
  const std::vector<expr::ExprRef>& constraints() const {
    return solver_.constraints();
  }

 private:
  void addConstraintChecked(const expr::ExprRef& cond);

  expr::ExprBuilder& eb_;
  solver::PathSolver solver_;
  KnownBitsTracker known_;
  std::vector<expr::ExprRef> symbolics_;  ///< makeSymbolic calls, this path
  std::vector<bool> forced_;
  std::size_t cursor_ = 0;
  std::vector<bool> decisions_;
  std::vector<std::vector<bool>> pending_forks_;
  Limits limits_;
  PathStats stats_;
  std::vector<obs::TraceEvent> trace_events_;
  std::vector<std::string> tags_;
  std::vector<std::pair<std::string, std::uint64_t>> times_;
};

}  // namespace rvsym::symex

/// Buffers a path-local trace event iff the engine enabled tracing for
/// this run; `event_expr` is not evaluated otherwise.
#define RVSYM_TRACE_PATH(state, event_expr)              \
  do {                                                   \
    if ((state).tracingEnabled()) {                      \
      (state).traceEvent(event_expr);                    \
    }                                                    \
  } while (0)
