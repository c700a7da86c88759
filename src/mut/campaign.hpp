// CampaignRunner — fans an enumerated mutant set across workers and
// judges every mutant with the bounded symbolic co-simulation.
//
// Per mutant: DecodeBit mutants first get the solver-backed decode
// equivalence check (space.hpp) — a provably behaviour-preserving
// mutant is verdict `equivalent` without spending a co-simulation.
// Everything else runs hunts at instruction limits 1..max_instr_limit
// (stop-on-error, so a hunt ends at the first voter mismatch); the
// first limit that kills records the minimum-limit-to-kill, the killing
// test vector and the mismatch message. A mutant no limit kills within
// the per-hunt budgets is `survived` — the campaign's product is
// exactly that set (what the verification flow cannot see).
//
// Determinism: mutants are judged concurrently (options.jobs) but
// committed in enumeration order, and each per-mutant hunt is a
// deterministic symex::Engine run, so verdicts, kill limits and kill
// test vectors are byte-identical across campaign worker counts. The
// shared cross-path query cache spans the whole campaign (mutants
// replay near-identical decode cascades, so verdict reuse is high);
// cache traffic and wall times are the only timing-dependent outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cosim.hpp"
#include "mut/space.hpp"
#include "symex/engine.hpp"

namespace rvsym::mut {

enum class Verdict : std::uint8_t {
  Killed,      ///< a voter mismatch was reached within the budgets
  Survived,    ///< no hunt found a mismatch — the campaign's finding
  Equivalent,  ///< provably behaviour-preserving (decode-equivalence)
};

const char* verdictName(Verdict v);

struct MutantResult {
  Mutant mutant;
  Verdict verdict = Verdict::Survived;

  // Killed mutants only.
  unsigned kill_instr_limit = 0;  ///< minimum instruction limit that killed
  std::string kill_message;       ///< voter mismatch message
  symex::TestVector kill_test;    ///< the killing test vector
  bool has_kill_test = false;

  // Aggregated over every hunt this mutant ran (deterministic).
  std::uint64_t instructions = 0;
  std::uint64_t paths = 0;          ///< completed paths
  std::uint64_t partial_paths = 0;
  std::uint64_t solver_checks = 0;

  // Timing-dependent (t_/qc_ journal fields).
  double seconds = 0;
  std::uint64_t solver_us = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;
};

struct CampaignOptions {
  /// Campaign workers: mutants judged concurrently.
  unsigned jobs = 1;
  /// Exploration workers per mutant hunt (total threads ~= jobs *
  /// engine_jobs; the default keeps each hunt on its campaign worker).
  unsigned engine_jobs = 1;
  /// Hunts run at instruction limits min..max_instr_limit until a kill.
  /// Pinning min == max (as bench_table2 does per column) measures one
  /// specific limit instead of searching for the cheapest kill.
  unsigned min_instr_limit = 1;
  unsigned max_instr_limit = 2;
  /// Per-hunt budgets (a survivor costs max_instr_limit budgeted hunts).
  std::uint64_t max_paths_per_hunt = 200000;
  double max_seconds_per_hunt = 60;
  unsigned num_symbolic_regs = 2;
  /// Scenario constraint for generated instructions; label is recorded
  /// in the journal header. Default: the Table II "only RV32I" scenario.
  core::InstrConstraint instr_constraint;
  std::string scenario = "rv32i";
  /// Solver pre-check classifying behaviour-preserving DecodeBit
  /// mutants as Equivalent instead of hunting them.
  bool check_decode_equivalence = true;
  /// Campaign-wide cross-path query cache shared by every hunt.
  bool use_query_cache = true;
  /// Solver acceleration layers for every hunt (--solver-opt; DESIGN.md
  /// §10). Verdicts are unaffected — the layers are sound — so the
  /// mutation score and kill set are byte-identical across settings.
  solver::SolverOptions solver_opt{};
  /// Externally owned counterexample/subsumption store for direct
  /// judgeMutant callers. CampaignRunner ignores this and spans its own
  /// store across the whole campaign when the cex layer is on.
  solver::CexCache* shared_cex_cache = nullptr;
  /// JSONL journal path ("" = none). With resume, mutants already
  /// judged in the existing file are skipped and new lines appended.
  std::string journal_path;
  bool resume = false;
  /// Directory for per-survivor manifest JSON files ("" = none).
  std::string survivor_dir;
  /// Directory for per-hunt JSONL lifecycle traces ("" = none):
  /// <dir>/<file-safe mutant id>_limit<k>.jsonl, readable by rvsym-report.
  std::string trace_dir;
  /// Campaign progress lines on stderr every this many seconds (0 =
  /// off): mutants judged / killed / remaining, plus the per-hunt
  /// engine heartbeats with coverage and qcache extras.
  double heartbeat_seconds = 0;
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query solver telemetry shared by every hunt (span export,
  /// slow-query corpus). Aggregates across mutants; timing-dependent.
  solver::SolverTelemetry* telemetry = nullptr;
  /// Phase profiler shared by every hunt (thread-local stacks, so
  /// concurrent hunts don't interleave spans within a track).
  obs::PhaseProfiler* profiler = nullptr;
  /// Commit-order callback per judged mutant (CLI progress, bundles).
  std::function<void(const MutantResult&)> on_result;
};

struct CampaignReport {
  std::vector<MutantResult> results;  ///< judged mutants, enumeration order
  std::uint64_t killed = 0;
  std::uint64_t survived = 0;
  std::uint64_t equivalent = 0;
  std::uint64_t skipped = 0;  ///< already judged in the resumed journal
  double seconds = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;

  /// killed / (killed + survived) — equivalent mutants are excluded
  /// from the denominator, the standard mutation-score convention.
  double mutationScore() const {
    const std::uint64_t denom = killed + survived;
    return denom == 0 ? 0.0 : static_cast<double>(killed) /
                                  static_cast<double>(denom);
  }
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options);

  /// Judges every mutant. Results commit (journal, on_result) in input
  /// order regardless of worker count.
  CampaignReport run(const std::vector<Mutant>& mutants);

  const CampaignOptions& options() const { return options_; }

 private:
  CampaignOptions options_;
};

/// Judges one mutant with a dedicated engine (the unit the campaign
/// parallelizes; exposed for tests and replay).
MutantResult judgeMutant(const Mutant& mutant, const CampaignOptions& options,
                         solver::QueryCache* shared_cache,
                         const std::function<std::string()>& heartbeat_extra);

}  // namespace rvsym::mut
