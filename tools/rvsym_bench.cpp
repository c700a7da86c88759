// rvsym-bench — the unified benchmark harness.
//
//   rvsym-bench list
//       Prints the bench registry with suite membership.
//
//   rvsym-bench run [--suite smoke|all] [--all] [--only NAME[,NAME...]]
//                   [--repeats N] [--warmup N] [--bin-dir DIR]
//                   [--out FILE] [--work-dir DIR]
//                   [--timeseries-out FILE] [--status-file FILE]
//                   [--sample-interval S]
//       Runs the selected benches as subprocesses (warmup + timed
//       repeats each), collects every bench's self-report, and writes
//       one rvsym-bench-run-v1 document (default: BENCH_rvsym.json in
//       the current directory — run it from the repo root to get the
//       canonical location). Exit 0 iff every bench passed its own
//       claim checks. --timeseries-out / --status-file stream suite
//       progress (kind "bench") for a concurrent `rvsym-top`.
//
//   rvsym-bench compare --baseline FILE [--current FILE]
//                       [--threshold PCT]
//       Compares two run documents by median wall clock per bench.
//       Exit 1 when any bench regressed beyond the threshold (default
//       100% — current may take up to 2x baseline; wall-clock noise on
//       shared CI runners is large, the gate catches step-function
//       regressions), failed its claim checks, or disappeared.
//
// Bench binaries are discovered in <dir of argv[0]>/../bench — the
// build-tree layout (build/tools/rvsym-bench, build/bench/bench_*) —
// overridable with --bin-dir.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace {

using namespace rvsym;
namespace fs = std::filesystem;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list\n"
      "       %s run [--suite smoke|all] [--all] [--only NAME[,NAME...]]\n"
      "              [--repeats N] [--warmup N] [--bin-dir DIR]\n"
      "              [--out FILE] [--work-dir DIR]\n"
      "              [--timeseries-out FILE] [--status-file FILE]\n"
      "              [--sample-interval S]\n"
      "       %s compare --baseline FILE [--current FILE] "
      "[--threshold PCT]\n",
      argv0, argv0, argv0);
  return 2;
}

std::string defaultBinDir(const char* argv0) {
  std::error_code ec;
  fs::path self = fs::absolute(fs::path(argv0), ec);
  if (ec) return "bench";
  return (self.parent_path().parent_path() / "bench").string();
}

std::vector<std::string> splitNames(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int cmdList() {
  std::printf("%-18s %-24s %-6s %s\n", "name", "binary", "smoke", "kind");
  for (const bench::BenchSpec& spec : bench::allBenches())
    std::printf("%-18s %-24s %-6s %s\n", spec.name.c_str(), spec.exe.c_str(),
                spec.smoke ? "yes" : "no",
                spec.google_benchmark ? "google-benchmark" : "rvsym-bench-v1");
  return 0;
}

int cmdRun(int argc, char** argv, const char* argv0) {
  bench::RunOptions opts;
  opts.bin_dir = defaultBinDir(argv0);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      opts.suite = argv[++i];
    } else if (std::strcmp(argv[i], "--all") == 0) {
      opts.suite = "all";
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      opts.only = splitNames(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      opts.repeats = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      opts.warmup = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--bin-dir") == 0 && i + 1 < argc) {
      opts.bin_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--work-dir") == 0 && i + 1 < argc) {
      opts.work_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--timeseries-out") == 0 && i + 1 < argc) {
      opts.timeseries_out = argv[++i];
    } else if (std::strcmp(argv[i], "--status-file") == 0 && i + 1 < argc) {
      opts.status_file = argv[++i];
    } else if (std::strcmp(argv[i], "--sample-interval") == 0 && i + 1 < argc) {
      opts.sample_interval_s = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown run option: %s\n", argv[i]);
      return usage(argv0);
    }
  }
  if (opts.suite != "smoke" && opts.suite != "all") {
    std::fprintf(stderr, "unknown suite '%s' (use smoke or all)\n",
                 opts.suite.c_str());
    return 2;
  }
  if (opts.repeats == 0) {
    std::fprintf(stderr, "--repeats must be >= 1\n");
    return 2;
  }
  return bench::runSuite(opts);
}

int cmdCompare(int argc, char** argv, const char* argv0) {
  std::string baseline;
  std::string current = "BENCH_rvsym.json";
  double threshold = 100.0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
      baseline = argv[++i];
    else if (std::strcmp(argv[i], "--current") == 0 && i + 1 < argc)
      current = argv[++i];
    else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc)
      threshold = std::atof(argv[++i]);
    else {
      std::fprintf(stderr, "unknown compare option: %s\n", argv[i]);
      return usage(argv0);
    }
  }
  if (baseline.empty()) {
    std::fprintf(stderr, "compare requires --baseline FILE\n");
    return usage(argv0);
  }
  return bench::compareRuns(current, baseline, threshold);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "list") return cmdList();
  if (cmd == "run") return cmdRun(argc - 2, argv + 2, argv[0]);
  if (cmd == "compare") return cmdCompare(argc - 2, argv + 2, argv[0]);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return usage(argv[0]);
}
