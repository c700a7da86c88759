// SolverTelemetry — per-query instrumentation for the bit-vector solver.
//
// One SolverTelemetry instance is shared by every PathSolver of a run
// (like the QueryCache). Each feasibility check reports a Query record:
// canonical structural hash, expr node count, SAT variable/clause
// counts, split bit-blast vs SAT microseconds, verdict, and cache
// disposition. Records feed the obs registry (histograms
// solver.bitblast_us / solver.sat_us, counters solver.queries /
// solver.slow_queries), and queries whose total latency crosses
// `Options::slow_query_us` are dumped — serialized expression text plus
// a companion DIMACS CNF — into the slow-query corpus directory for
// offline replay and shrinking by rvsym-profile (see corpus.hpp).
//
// Thread safety: record()/dump() are safe for concurrent use by worker
// threads; counters are atomic and the corpus writer (dedup set + file
// I/O) is mutex-protected. Dump filenames derive from the canonical
// query hash, so parallel runs of the same workload produce the same
// corpus file set regardless of worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "expr/expr.hpp"
#include "obs/metrics.hpp"
#include "solver/querycache.hpp"

namespace rvsym::obs {
class SpanCollector;  // obs/trace_events.hpp
}

namespace rvsym::solver {

enum class CheckResult;  // solver.hpp

class SolverTelemetry {
 public:
  struct Options {
    /// Dump queries whose bitblast+SAT time reaches this many
    /// microseconds. 0 disables corpus dumping (registry metrics and
    /// the slow counter still need a nonzero threshold to trigger).
    std::uint64_t slow_query_us = 0;
    /// Corpus directory (created on first dump). Empty disables dumping
    /// while keeping the slow-query counter.
    std::string corpus_dir;
  };

  /// How a check was answered (DESIGN.md §10): Hit = exact-hash
  /// QueryCache; CexModel / CexCore = counterexample cache (stored model
  /// re-evaluated / UNSAT-core subsumption); Rewrite = assumption
  /// collapsed to a constant pre-bitblast; Sliced = solved, but only the
  /// constraint slice sharing variables with the assumption was passed
  /// to the SAT solver; Miss = full solve; Uncached = solved with no
  /// cache attached.
  enum class Disposition { Uncached, Hit, Miss, CexModel, CexCore, Rewrite,
                           Sliced };

  struct Query {
    CanonHash hash;
    std::uint64_t expr_nodes = 0;   ///< unique nodes in the assumption DAG
    std::uint64_t sat_vars = 0;
    std::uint64_t sat_clauses = 0;  ///< live problem clauses
    std::uint64_t bitblast_us = 0;
    std::uint64_t sat_us = 0;
    CheckResult verdict;
    Disposition disposition = Disposition::Uncached;
  };

  SolverTelemetry() = default;
  explicit SolverTelemetry(Options opts) : opts_(std::move(opts)) {}

  /// Mirrors telemetry into registry instruments: counters
  /// "solver.queries" / "solver.slow_queries", histograms
  /// "solver.bitblast_us" / "solver.sat_us" / "solver.query_nodes".
  void attachMetrics(obs::MetricsRegistry& registry);

  /// When set, every record() additionally emits one Chrome-trace span
  /// on the recording thread's track, named after the disposition, with
  /// disposition / verdict / node + SAT size counts as span args.
  /// Cache-answered queries appear as zero-duration spans, which is the
  /// point: Perfetto shows where solves were avoided, not just spent.
  void attachSpans(obs::SpanCollector* spans) { spans_ = spans; }
  obs::SpanCollector* spans() const { return spans_; }

  /// Records one check. Returns true iff the caller should dump() the
  /// query: it crossed the slow threshold, has a definitive verdict, a
  /// corpus dir is configured, and its hash was not dumped before.
  bool record(const Query& q);

  /// Writes q_<hash>.query and q_<hash>.cnf into the corpus dir.
  /// Returns false on I/O or serialization failure.
  bool dump(const Query& q, const std::vector<expr::ExprRef>& constraints,
            const expr::ExprRef& assumption, const std::string& dimacs);

  const Options& options() const { return opts_; }
  std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  std::uint64_t slowQueries() const {
    return slow_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumpedQueries() const {
    return dumped_.load(std::memory_order_relaxed);
  }

 private:
  Options opts_;
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> slow_{0};
  std::atomic<std::uint64_t> dumped_{0};

  std::mutex mu_;  // corpus dedup set + directory creation + file writes
  std::unordered_set<std::uint64_t> dumped_keys_;
  bool dir_ready_ = false;

  obs::SpanCollector* spans_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_slow_ = nullptr;
  obs::Histogram* m_bitblast_us_ = nullptr;
  obs::Histogram* m_sat_us_ = nullptr;
  obs::Histogram* m_nodes_ = nullptr;
};

/// Short stable name for a disposition ("uncached", "exact", "solve",
/// "cex-model", "cex-core", "rewrite", "slice").
const char* dispositionName(SolverTelemetry::Disposition d);

}  // namespace rvsym::solver
