// Durable run history for rvsym-serve — runs.rvhx, schema
// rvsym-runs-v1 (DESIGN.md §13).
//
// The daemon appends one JSONL record per finalized job: the job's
// verdict mix, solve counts and cache dispositions aggregated from its
// journal, total judging wall time, and the bench-style build
// environment block — enough to answer "what did this campaign cost"
// long after the per-job journals are compacted away. The file uses
// the same two-case tail repair as the job store (a torn tail from a
// killed daemon is truncated; a parsable unterminated tail gets its
// newline), so appends after a crash never corrupt it.
//
// `rvsym-report history list/show/regress` reads the store offline;
// regress flags runs whose mean per-unit judging wall time exceeds a
// budget derived from a committed rvsym-bench baseline.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/analyze/json_reader.hpp"

namespace rvsym::obs::fleet {

struct RunRecord {
  std::string job;
  std::string kind;      ///< JobSpec kind: mutate | verify | replay
  std::string scenario;
  std::string solver_opt;
  std::string status;    ///< done | failed | cancelled
  std::uint64_t units_total = 0;
  std::uint64_t units_done = 0;
  std::uint64_t unit_errors = 0;
  std::map<std::string, std::uint64_t> verdicts;
  std::uint64_t solver_checks = 0;
  std::uint64_t instructions = 0;
  std::uint64_t qc_sat_solves = 0;
  std::uint64_t qc_hits = 0;
  std::uint64_t qc_misses = 0;
  /// Sum of per-unit judging wall time. t_-prefixed in the serialized
  /// form: timing, not part of the deterministic byte-stable fields.
  double wall_s = 0;
  /// Raw env object ({"os","arch","compiler",...}); runEnvJson() shape.
  std::string env_json;

  /// One rvsym-runs-v1 JSONL line (no trailing newline).
  std::string toJsonLine() const;
  static std::optional<RunRecord> fromJson(const analyze::JsonValue& v);
};

/// Build-environment metadata in the rvsym-bench env-block shape:
/// {"os","arch","compiler","hardware_concurrency","assertions"}.
std::string runEnvJson();

class RunHistory {
 public:
  explicit RunHistory(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Appends one record (flushed). False on I/O failure.
  bool append(const RunRecord& r);

  /// Loads every parsable record, applying the job-store two-case tail
  /// repair first-thing so later appends stay line-aligned: a torn
  /// (unparsable) tail is truncated away, a parsable unterminated tail
  /// gets its newline completed. Repair notes and skipped-line warnings
  /// land in `warnings`. A missing file is an empty history.
  std::vector<RunRecord> loadAll(std::vector<std::string>* warnings = nullptr);

 private:
  std::string path_;
};

std::string renderHistoryList(const std::vector<RunRecord>& runs);
std::string renderHistoryShow(const RunRecord& r);

struct RegressOptions {
  /// Allowed slack over the baseline per-unit budget, in percent.
  double slack_pct = 50.0;
};

struct RegressFinding {
  std::string job;
  double us_per_unit = 0;  ///< observed mean judging time per unit
  double budget_us = 0;    ///< baseline budget incl. slack
};

/// Flags runs whose mean per-unit judging wall time exceeds the
/// baseline budget. The baseline is an rvsym-bench-run-v1 document
/// (bench/baselines/BENCH_smoke.json); the budget is the table2 bench's
/// wall_median_us divided by its hunt count — one hunt judges one
/// mutant, the same unit of work a serve campaign shards — times
/// (1 + slack_pct/100). Returns nullopt (with *error) when the baseline
/// is unreadable or has no usable table2 entry.
std::optional<std::vector<RegressFinding>> flagRegressions(
    const std::vector<RunRecord>& runs, const std::string& baseline_path,
    const RegressOptions& opts, std::string* error = nullptr);

}  // namespace rvsym::obs::fleet
