// Heartbeat — the one progress-snapshot type and line formatter behind
// every live-progress surface in the repo.
//
// Before this helper existed, rvsym-verify (via the engines), the
// mutation campaign runner and rvsym-mutate each hand-rolled their own
// stderr progress line; the formats drifted and none of them could be
// reused by a machine consumer. Now every producer fills one
// HeartbeatSnapshot — path-exploration progress, campaign progress,
// generic work-unit progress, and the solver/cache liveness section
// read straight from the shared MetricsRegistry — and both sinks
// consume it:
//
//  * emitLine() renders the classic one-line stderr heartbeat
//    ("[rvsym] t=12.3s paths=... solver_qps=... p50/p90/p99=...");
//  * the TimeseriesSampler (obs/timeseries.hpp) serializes the same
//    snapshot as one rvsym-timeseries-v1 JSONL sample.
//
// Snapshots are wall-clock driven and therefore timing-dependent by
// nature; nothing here feeds the deterministic trace/journal surfaces.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace rvsym::obs {

struct HeartbeatSnapshot {
  double elapsed_s = 0;

  // --- Path exploration (the engine) -----------------------------------
  bool has_paths = false;
  std::uint64_t paths_done = 0;       ///< committed paths (totals - unexplored)
  std::uint64_t paths_completed = 0;
  std::uint64_t paths_error = 0;
  std::uint64_t paths_partial = 0;    ///< error + infeasible + limited
  std::uint64_t worklist_depth = 0;
  std::uint64_t instructions = 0;

  // --- Mutation campaign (rvsym-mutate) ----------------------------------
  bool has_campaign = false;
  std::uint64_t mutants_total = 0;
  std::uint64_t mutants_judged = 0;
  std::uint64_t mutants_killed = 0;
  std::uint64_t mutants_survived = 0;
  std::uint64_t mutants_equivalent = 0;

  // --- Generic done-vs-total work units (bench suite, journal loads) -----
  bool has_work = false;
  std::string work_label;             ///< e.g. "benches", "queries"
  std::uint64_t work_done = 0;
  std::uint64_t work_total = 0;       ///< 0 = open-ended

  // --- Solver + cache liveness (readRegistry) ----------------------------
  bool has_solver = false;
  std::uint64_t solver_solves = 0;    ///< real SAT solves (check_us count)
  double solver_qps = 0;              ///< solves / elapsed_s
  std::uint64_t solver_p50_us = 0;
  std::uint64_t solver_p90_us = 0;
  std::uint64_t solver_p99_us = 0;
  std::uint64_t slow_queries = 0;
  // Disposition split: how checks were answered without a full solve
  // (DESIGN.md §10) plus the sliced subset of real solves.
  std::uint64_t answered_exact = 0;
  std::uint64_t answered_cexm = 0;
  std::uint64_t answered_cexc = 0;
  std::uint64_t answered_rw = 0;
  std::uint64_t answered_sliced = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;

  /// Annotator output (live coverage, campaign counters) appended
  /// verbatim to the line and carried as the "extra" sample field.
  std::string extra;

  /// Fills the solver/cache section (and has_solver) from the shared
  /// registry's instruments. Safe while workers are recording; lookups
  /// create missing instruments at zero, which is harmless.
  void readRegistry(MetricsRegistry& registry);

  /// Fills the paths / campaign sections from the engine.* and
  /// campaign.* instruments the engine and the campaign runner keep
  /// updated (timeseries samplers run on their own thread, so registry
  /// counters are their only race-free view of progress). Sections stay
  /// disabled when their instruments were never touched.
  void readProgress(MetricsRegistry& registry);

  std::uint64_t answeredWithoutSolve() const {
    return answered_exact + answered_cexm + answered_cexc + answered_rw;
  }
  /// Cache-layer hit rate over all answered checks (0 when none).
  double cacheHitRate() const;
};

/// Renders the canonical single-line heartbeat (no trailing newline).
/// `prefix` names the producer: "rvsym" for engine runs, "campaign" for
/// the mutation runner, "bench"/"replay"/"report" for the CLIs.
std::string formatHeartbeatLine(const HeartbeatSnapshot& s,
                                const char* prefix);

/// formatHeartbeatLine + write to stderr + explicit flush (heartbeats
/// exist to be watched; stderr is block-buffered under redirection).
void emitHeartbeatLine(const HeartbeatSnapshot& s, const char* prefix);

}  // namespace rvsym::obs
