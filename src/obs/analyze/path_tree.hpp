// Exploration-tree reconstruction from the JSONL lifecycle trace.
//
// The trace's determinism contract (obs/trace.hpp) makes the tree fully
// recoverable offline: the root path is 0, every `fork` line names its
// parent, and every `path_end` line carries the path's verdict, its
// deterministic enrichment (workload tags, serialized test vector) and
// the timing-dependent attribution fields (`t_solver_us`, `t_rtl_us`,
// `t_iss_us`, ...). This module parses those lines back into a PathTree
// and answers the questions the paper's Table II rows raise but cannot
// show: WHERE did the solver time go — which subtrees, which paths,
// which instruction classes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rvsym::obs::analyze {

/// One reconstructed path (= one node of the exploration tree).
struct PathNode {
  std::uint64_t id = 0;
  /// Parent path id; the root (id 0) has no parent.
  std::optional<std::uint64_t> parent;
  /// Children in fork-discovery order (deterministic commit order).
  std::vector<std::uint64_t> children;
  /// Decision-prefix depth at which the fork creating this path was
  /// discovered (0 for the root).
  std::uint64_t fork_depth = 0;

  // --- path_end payload (absent until ended == true: a fork the run
  // --- never scheduled, e.g. under --max-paths) ---------------------------
  bool ended = false;
  std::string end;  ///< "completed" / "error" / "infeasible" / ...
  std::string message;
  std::uint64_t instructions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t forks = 0;
  std::uint64_t solver_checks = 0;
  bool has_test = false;
  /// Serialized test vector ("name=width:hexvalue", space-joined).
  std::string test;
  std::vector<std::string> tags;
  /// Per-path wall-time attribution in µs, keyed by the t_<key>_us field
  /// name stem ("solver", "rtl", "iss", ...). Timing-dependent.
  std::map<std::string, std::uint64_t> times_us;
  /// Query-cache traffic issued while executing this path, attributed to
  /// the worker that ran it (qc_worker). Timing-dependent under a shared
  /// campaign cache: what counts as a hit depends on solve order.
  std::uint64_t qc_hits = 0;
  std::uint64_t qc_misses = 0;
  std::uint64_t qc_worker = 0;

  std::uint64_t solverUs() const { return timeUs("solver"); }
  std::uint64_t timeUs(const std::string& key) const {
    const auto it = times_us.find(key);
    return it == times_us.end() ? 0 : it->second;
  }
  bool hasTag(const std::string& tag) const;
};

/// Subtree rollup for one node: this path plus all descendants.
struct SubtreeStats {
  std::uint64_t paths = 0;  ///< ended paths in the subtree
  std::uint64_t instructions = 0;
  std::uint64_t solver_checks = 0;
  std::map<std::string, std::uint64_t> times_us;

  std::uint64_t solverUs() const {
    const auto it = times_us.find("solver");
    return it == times_us.end() ? 0 : it->second;
  }
};

/// Verdict counters derived from the tree, in EngineReport terms —
/// the round-trip check against the engine's own report.
struct TreeCounts {
  std::uint64_t completed = 0;
  std::uint64_t error = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t limited = 0;  ///< "solver-limit" + "budget"
  std::uint64_t unexplored = 0;  ///< forked but never ended
  std::uint64_t instructions = 0;
  std::uint64_t tests = 0;

  std::uint64_t total() const {
    return completed + error + infeasible + limited + unexplored;
  }
};

class PathTree {
 public:
  /// Reconstructs the tree from JSONL trace lines (non-trace lines and
  /// unrelated event types are skipped). Returns nullopt with a reason
  /// when the lines do not contain a usable trace (no run_start, a fork
  /// naming an unknown parent, unparseable JSON on a trace-shaped line).
  static std::optional<PathTree> fromTraceLines(
      const std::vector<std::string>& lines, std::string* error = nullptr);
  /// Same, reading one line per row from a file.
  static std::optional<PathTree> fromFile(const std::string& path,
                                          std::string* error = nullptr);

  const std::map<std::uint64_t, PathNode>& nodes() const { return nodes_; }
  const PathNode* node(std::uint64_t id) const;
  const PathNode& root() const { return nodes_.at(0); }
  std::size_t size() const { return nodes_.size(); }

  /// run_start metadata.
  std::uint64_t jobs() const { return jobs_; }
  const std::string& searcher() const { return searcher_; }

  /// Verdict counters derived purely from the nodes.
  TreeCounts counts() const;

  /// Rollup of one subtree (the node plus every descendant).
  SubtreeStats subtree(std::uint64_t id) const;

  /// Total µs across all ended paths for one time key ("solver", "rtl",
  /// "iss"). The "solver" total is the figure that must agree with the
  /// metrics registry's solver.check_us sum.
  std::uint64_t totalUs(const std::string& key) const;

  /// The k ended paths with the largest `key` time, descending (ties
  /// broken by path id for stable output).
  std::vector<const PathNode*> topPaths(std::size_t k,
                                        const std::string& key) const;

  /// The k direct children of the root whose subtrees carry the largest
  /// `key` time, descending — the "which half of the exploration was
  /// expensive" view.
  std::vector<std::pair<std::uint64_t, SubtreeStats>> topSubtrees(
      std::size_t k, const std::string& key) const;

  /// Sums `key` µs per tag with the given prefix (e.g. prefix "class:"
  /// → {"class:alu": 1200, ...}). A path carrying n matching tags
  /// contributes its full time to each — the result answers "how much
  /// solver time did paths involving class X cost", not a partition.
  std::map<std::string, std::uint64_t> timeByTag(
      const std::string& prefix, const std::string& key) const;

  /// Query-cache traffic summed per executing worker ({hits, misses}
  /// pairs keyed by qc_worker). Only committed paths contribute — the
  /// per-worker sums therefore add up to the run_end qc_hits/qc_misses
  /// totals, which count committed outcomes (symex/engine.cpp).
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
  qcacheByWorker() const;

  /// Multi-line human-readable report: counts, top paths, top subtrees
  /// and per-class attribution.
  std::string renderReport(std::size_t top_k = 5) const;

 private:
  std::map<std::uint64_t, PathNode> nodes_;
  std::uint64_t jobs_ = 1;
  std::string searcher_;
};

}  // namespace rvsym::obs::analyze
