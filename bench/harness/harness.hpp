// bench harness — discovery, execution and regression comparison for
// the nine bench_* binaries, consumed by tools/rvsym_bench.cpp.
//
// The harness runs each bench as a subprocess (benches are standalone
// mains with their own exit-code claim checks; in-process linking would
// force nine mains into one binary and share allocator/interning state
// between measurements), times the wall clock around each invocation,
// and asks the bench for its machine-readable self-report via the
// --out mechanism every bench supports (bench_micro, a google-benchmark
// main, reports via --benchmark_out instead). Results merge into one
// run document:
//
//   {"schema": "rvsym-bench-run-v1",
//    "suite": "smoke" | "all",
//    "repeats": N, "warmup": W,
//    "env": {"os": ..., "arch": ..., "compiler": ...,
//            "hardware_concurrency": C, "build_type": ...},
//    "benches": [
//      {"name": "table1", "ok": true,
//       "wall_median_us": M, "wall_min_us": m, "wall_max_us": x,
//       "wall_us": [per-repeat wall clocks],
//       "report": <the bench's own rvsym-bench-v1 document, verbatim>},
//      ...]}
//
// compareRuns() reads two such documents and fails (nonzero) when any
// bench's wall_median_us regressed by more than the threshold, when a
// baseline bench is missing from the current run, or when a bench's
// claim checks (`ok`) went false — the CI perf-smoke gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rvsym::bench {

/// One runnable bench binary.
struct BenchSpec {
  std::string name;  ///< canonical name ("table1", "micro", ...)
  std::string exe;   ///< binary name under the bench directory
  /// Extra arguments for a full run (--suite all).
  std::vector<std::string> full_args;
  /// Extra arguments for a smoke run — reduced budgets where the bench
  /// supports them, identical to full_args otherwise.
  std::vector<std::string> smoke_args;
  /// Included in --suite smoke (fast enough for a CI gate).
  bool smoke = false;
  /// google-benchmark main: self-report via --benchmark_out, and the
  /// emitted document is google-benchmark's schema, not rvsym-bench-v1.
  bool google_benchmark = false;
};

/// The fixed registry of all nine benches.
const std::vector<BenchSpec>& allBenches();

struct RunOptions {
  /// Directory holding the bench binaries. Empty = derive from argv[0]
  /// (<tool dir>/../bench, the build-tree layout).
  std::string bin_dir;
  std::string suite = "all";  ///< "all" or "smoke"
  /// Explicit bench names (overrides the suite selection when set).
  std::vector<std::string> only;
  unsigned repeats = 3;  ///< timed repeats per bench
  unsigned warmup = 1;   ///< untimed warmup runs per bench
  /// Run-document destination. The canonical location is
  /// <repo root>/BENCH_rvsym.json.
  std::string out_path = "BENCH_rvsym.json";
  /// Scratch directory for per-bench --out files and logs. Empty =
  /// alongside out_path.
  std::string work_dir;
  /// Live telemetry: rvsym-timeseries-v1 stream / atomically rewritten
  /// status object sampling suite progress (kind "bench", one work unit
  /// per bench invocation, warmups included) — `rvsym-top` renders
  /// either while the suite runs. Empty = off.
  std::string timeseries_out;
  std::string status_file;
  double sample_interval_s = 0.5;
};

/// One bench's aggregated outcome.
struct BenchRun {
  std::string name;
  bool ok = false;  ///< every invocation exited 0
  std::vector<std::uint64_t> wall_us;  ///< one entry per timed repeat
  std::string report_json;  ///< last repeat's self-report (may be empty)
};

std::uint64_t medianU64(std::vector<std::uint64_t> v);

/// Host metadata object for the run document.
std::string envJson();

/// Renders the rvsym-bench-run-v1 document.
std::string runDocument(const RunOptions& opts,
                        const std::vector<BenchRun>& runs);

/// Runs the selected suite, writes the run document to opts.out_path.
/// Returns 0 when every bench ran and passed its own claim checks.
int runSuite(const RunOptions& opts);

/// Compares two run documents. `threshold_pct` is the allowed median
/// wall-clock growth in percent (e.g. 100 = current may take up to 2x
/// the baseline). Returns 0 when no bench regressed; prints a
/// per-bench table either way.
int compareRuns(const std::string& current_path,
                const std::string& baseline_path, double threshold_pct);

}  // namespace rvsym::bench
