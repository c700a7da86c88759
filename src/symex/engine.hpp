// Engine — explores all paths of a symbolic program (the KLEE substitute).
//
// The program is an arbitrary callable taking an ExecState. The engine
// maintains a worklist of decision prefixes, re-executes the program per
// prefix (replay-based forking) and aggregates per-path outcomes into an
// EngineReport whose counters mirror the numbers the paper reports from
// KLEE: completed paths, partial paths, executed instructions, wall time,
// and generated test vectors.
//
// Paths run under *speculative execution with ordered commit*:
//
//  * `jobs` workers, each owning a private ExprBuilder / PathSolver / DUT
//    harness (the program is a factory: it is instantiated once per
//    worker against the worker's builder);
//  * a shared worklist of decision prefixes. Workers claim prefixes the
//    committer has not popped yet (DFS workers steal from the back, BFS
//    from the front) and execute them speculatively;
//  * a single committer (the caller's thread, which doubles as worker
//    0) pops prefixes in searcher order, commits finished results in
//    that order — pushing newly discovered forks, aggregating counters
//    and enforcing the path / instruction / time budgets — and executes
//    any popped prefix no worker has claimed yet. At jobs 1 it is the
//    only worker, and exploration is plain sequential DFS/BFS/Random.
//
// Because a path's outcome is a pure function of its decision prefix
// (canonical solver models, builder-independent expressions), a
// speculatively executed path commits the same result the committer
// would have produced — so the report is byte-identical for any worker
// count, except for the timing-dependent fields listed at EngineReport.
// In an exhaustive run every worklist entry is eventually committed, so
// speculation wastes no work; under stop-on-error or a budget, at most
// `jobs` in-flight paths are discarded.
//
// The cross-path query cache (solver/querycache.hpp) is shared by all
// workers: fork-feasibility verdicts are keyed by a canonical structural
// hash of (constraint set, assumption). Verdicts are semantic facts —
// hits change which solve calls run, never their answers — so
// determinism is unaffected. Both solver caches are disabled when a
// solver conflict budget is set (a budgeted Unknown is not a semantic
// fact).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "expr/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "symex/state.hpp"

namespace rvsym::symex {

struct EngineOptions {
  enum class Searcher { Dfs, Bfs, Random };
  Searcher searcher = Searcher::Dfs;
  /// Direction taken first at a two-sided fork.
  bool take_true_first = true;
  /// Stop after this many paths (0 = unlimited).
  std::uint64_t max_paths = 0;
  /// Wall-clock budget in seconds (0 = unlimited).
  double max_seconds = 0;
  /// Total executed-instruction budget (0 = unlimited).
  std::uint64_t max_instructions = 0;
  /// Per-path decision budget (0 = unlimited).
  std::uint64_t max_decisions_per_path = 100000;
  /// SAT conflict budget per query (0 = unlimited).
  std::uint64_t solver_max_conflicts = 0;
  /// Stop exploring on the first Error path (KLEE --exit-on-error).
  bool stop_on_error = true;
  /// Solve and store a test vector for Completed and Error paths.
  bool collect_test_vectors = true;
  /// Seed for the Random searcher.
  std::uint32_t random_seed = 0x5eed5eed;
  /// Known-bits fast path (disable only for ablation benchmarks).
  bool use_known_bits = true;
  /// Solver acceleration layers (--solver-opt=; solver/options.hpp).
  /// Every layer is sound, so verdicts, test vectors and reports are
  /// byte-identical across configurations; only timing fields move.
  /// Ignored when solver_max_conflicts != 0.
  solver::SolverOptions solver_opt{};
  /// Keep at most this many non-error path records in the report
  /// (counters are exact regardless). 0 = keep all.
  std::uint64_t max_stored_paths = 0;
  /// Worker count (committer included). 1 = exploration on the calling
  /// thread alone.
  unsigned jobs = 1;
  /// Externally owned cache shared beyond this run (the mutation
  /// campaign hands one cache to every per-mutant engine). Verdicts are
  /// semantic facts keyed by canonical structural hashes, so reuse
  /// across runs changes which solves execute, never their answers.
  /// When set it replaces the run-private cache, and report.qcache_*
  /// counts this run's committed traffic only — summed from the per-path
  /// counters each worker's solver observed, so concurrent runs sharing
  /// the cache never leak their lookups into each other's reports.
  solver::QueryCache* shared_cache = nullptr;
  /// Externally owned counterexample/subsumption cache shared beyond
  /// this run (the mutation campaign spans one across every hunt —
  /// mutants replay near-identical decode cascades, so model and core
  /// reuse is high). Same soundness argument as shared_cache. When null
  /// and solver_opt.cex_cache is on, the run owns a private store shared
  /// across its workers.
  solver::CexCache* shared_cex_cache = nullptr;

  // --- Observability (all optional; the engine owns none of them) ---------
  /// Structured JSONL event sink for the path lifecycle (see obs/trace.hpp
  /// for the schema and determinism contract). nullptr disables tracing at
  /// zero cost beyond one branch per event site.
  obs::TraceSink* trace = nullptr;
  /// Metrics registry: solver check-latency histogram, per-instruction
  /// step-time histograms (when the program records them), worklist-depth
  /// gauge and query-cache counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query solver telemetry (shared across workers): structural
  /// hash, node/var/clause counts, bitblast/SAT timing split, and the
  /// slow-query corpus dump (solver/telemetry.hpp).
  solver::SolverTelemetry* telemetry = nullptr;
  /// Phase profiler: each path runs under a "path" phase; the
  /// co-simulation and solver nest "rtl"/"iss"/"voter"/"solver" inside
  /// it. Folded-stack output via obs::PhaseProfiler::folded().
  obs::PhaseProfiler* profiler = nullptr;
  /// Emit a progress heartbeat line on stderr every this many seconds
  /// (0 = off). Wall-clock driven, so inherently timing-dependent; it
  /// never goes into the trace.
  double heartbeat_seconds = 0;
  /// Optional extra heartbeat text computed from the committed report so
  /// far (e.g. live test-set coverage percent). Called on the committer
  /// under its lock — keep it cheap.
  std::function<std::string(const struct EngineReport&)> heartbeat_annotator;
  /// Derives deterministic workload tags from a committed path record
  /// (e.g. instruction classes decoded from the test vector). Merged
  /// with the tags the program added via ExecState::addTag, sorted and
  /// deduplicated, stored on the record and emitted at path_end. Must be
  /// a pure function of the record so traces stay identical across
  /// worker counts.
  std::function<std::vector<std::string>(const struct PathRecord&)> path_tagger;
};

struct PathRecord {
  PathEnd end = PathEnd::Completed;
  std::string message;
  TestVector test;
  bool has_test = false;
  std::uint64_t instructions = 0;
  std::vector<bool> decisions;
  /// Sorted, deduplicated workload tags (program ExecState tags plus
  /// EngineOptions::path_tagger output). Deterministic.
  std::vector<std::string> tags;
  /// Wall time this path spent inside SAT solves (timing-dependent;
  /// emitted as the t_solver_us path_end field). Populated only when a
  /// trace sink or metrics registry is configured.
  std::uint64_t solver_us = 0;
};

// Determinism contract, field by field. For a fixed workload and
// EngineOptions, every field below is byte-identical across worker
// counts (--jobs N), schedules and query-cache states — the engine
// commits in searcher order and solver models are canonical — EXCEPT:
//   * `seconds`           — wall clock;
//   * `qcache_hits`,
//     `qcache_misses`     — which worker wins the race to solve a query
//                           decides hit vs. miss.
// Everything else (path counts, instructions, branches, decision-stage
// counters, solver_checks, test_vectors, the per-path records including
// their test vectors) is deterministic; tests and the scaling bench
// compare them across jobs values directly.
struct EngineReport {
  // Paper-facing counters.
  std::uint64_t completed_paths = 0;  ///< "Paths" in Table II
  std::uint64_t error_paths = 0;
  std::uint64_t infeasible_paths = 0;
  std::uint64_t limited_paths = 0;    ///< solver/budget terminations
  std::uint64_t unexplored_forks = 0; ///< worklist left when the run stopped
  std::uint64_t instructions = 0;     ///< "# Exec. Instr." in Table II
  double seconds = 0;                 ///< "Time [s]" in Table II
  std::uint64_t test_vectors = 0;

  // Engine internals.
  std::uint64_t branches = 0;
  std::uint64_t const_decided = 0;
  std::uint64_t knownbits_decided = 0;
  std::uint64_t solver_decided = 0;
  std::uint64_t solver_checks = 0;
  /// Cross-path query-cache traffic of the committed paths: the sums
  /// of their path_end qc_hits/qc_misses (0 when a solver conflict
  /// budget disables the cache; like `seconds`, timing-dependent at
  /// jobs > 1, unlike every other counter here).
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;
  bool stopped_early = false;

  std::vector<PathRecord> paths;

  /// "Partial Paths" in Table II: every path KLEE could not run to its
  /// normal end, plus forks that were never scheduled.
  std::uint64_t partialPaths() const {
    return error_paths + infeasible_paths + limited_paths + unexplored_forks;
  }
  std::uint64_t totalPaths() const {
    return completed_paths + partialPaths();
  }
  /// First Error record, if any.
  const PathRecord* firstError() const;
};

/// Renders the report as a JSON object through the shared obs serializer
/// — the one emitter rvsym-verify --metrics-out and all benches reuse.
/// Deterministic fields come first; the timing-dependent ones (see the
/// contract above) are grouped under a "timing" sub-object.
std::string reportToJson(const EngineReport& report);

/// Per-worker execution context handed to the program factory.
struct WorkerContext {
  unsigned worker_id = 0;      ///< 0 = the committer thread
  expr::ExprBuilder& builder;  ///< worker-private; build the DUT against it
};

using PathProgram = std::function<void(ExecState&)>;

/// Instantiates one worker's path program (ISS + RTL co-sim harness,
/// synthetic test program, ...). Called once per worker, against the
/// worker's private builder, before exploration starts. The returned
/// callable runs one path and must depend only on the prefix replayed
/// through ExecState (any state it touches must be per-worker).
using ProgramFactory = std::function<PathProgram(WorkerContext&)>;

class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Explores every path of the per-worker programs built by `factory`.
  /// The callable may throw PathTerminated (via ExecState helpers); any
  /// other exception is re-thrown on the calling thread.
  EngineReport run(const ProgramFactory& factory);

  /// Convenience wrapper for programs without per-worker state: every
  /// worker shares the same callable (it must then be thread-safe when
  /// jobs > 1, and build only on ExecState::builder()).
  EngineReport run(const PathProgram& program);

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
};

}  // namespace rvsym::symex
