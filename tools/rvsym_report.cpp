// rvsym-report — offline analysis of rvsym-verify run artifacts.
//
//   rvsym-report tree <trace.jsonl> [--top K] [--json]
//       Reconstruct the exploration path tree from the JSONL lifecycle
//       trace and print the solver/RTL/ISS time attribution: top-K most
//       expensive paths and root subtrees, dominating instruction
//       classes, verdict counts.
//
//   rvsym-report coverage <trace.jsonl> [--html FILE] [--json] [--holes]
//       Replay the per-path test vectors and tags into the
//       decoder-space coverage map ((opcode, funct3, funct7) cells, CSR
//       bins, trap causes, voter channels); print the summary, or emit
//       the full map as JSON / a self-contained HTML heatmap.
//
//   rvsym-report diff <runA> <runB>
//       Compare two runs (trace files or directories containing one)
//       in every deterministic dimension: tree shape, verdicts, tags,
//       test vectors and coverage sets. Exit 0 when identical, 1 when
//       different — CI asserts jobs=1 vs jobs=N parity with this.
//
//   rvsym-report timeseries <run.jsonl> [other.jsonl]
//       With one file: summarize a --timeseries-out stream (progress,
//       solver latency percentiles, cache split) with ASCII time plots.
//       With two: diff the deterministic surface (header + ts_final
//       minus t_*/qc_* fields) — the sampler's --jobs parity check.
//
//   rvsym-report trace-events --merge <dir> [--out FILE]
//       Stitch the per-process Chrome traces a campaign daemon writes
//       with --trace-events-dir (daemon.trace.json + one file per
//       worker) into a single timeline: each file gets a distinct pid,
//       timestamps are aligned on the shared steady-clock epoch, and
//       the job -> shard -> unit -> solver-query span nesting survives.
//
//   rvsym-report history list <runs.rvhx|state-dir>
//   rvsym-report history show <runs.rvhx|state-dir> <job>
//   rvsym-report history regress <runs.rvhx|state-dir> --baseline FILE
//       [--slack PCT]
//       Query the durable run-history store the daemon appends per
//       finalized job. `regress` exits 1 when any run's mean per-unit
//       judging time exceeds the baseline-derived budget.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "obs/analyze/coverage_map.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/path_tree.hpp"
#include "obs/analyze/timeseries.hpp"
#include "obs/fleet/history.hpp"
#include "obs/fleet/trace_merge.hpp"

namespace {

using namespace rvsym;
using namespace rvsym::obs::analyze;

int usage() {
  std::fprintf(
      stderr,
      "usage: rvsym-report tree <trace.jsonl> [--top K] [--json]\n"
      "       rvsym-report coverage <trace.jsonl> [--html FILE] [--json] "
      "[--holes]\n"
      "       rvsym-report diff <runA> <runB>\n"
      "       rvsym-report timeseries <run.jsonl> [other.jsonl]\n"
      "       rvsym-report trace-events --merge <dir> [--out FILE]\n"
      "       rvsym-report history list <runs.rvhx|state-dir>\n"
      "       rvsym-report history show <runs.rvhx|state-dir> <job>\n"
      "       rvsym-report history regress <runs.rvhx|state-dir>\n"
      "           --baseline FILE [--slack PCT]\n"
      "\n"
      "Consumes the artifacts a run of `rvsym-verify --trace-out ...`\n"
      "produces. `diff` accepts trace files or run directories and exits\n"
      "0 when the runs' deterministic content is identical, 1 otherwise.\n");
  return 2;
}

std::optional<PathTree> loadTree(const std::string& path) {
  std::string err;
  std::optional<PathTree> tree = PathTree::fromFile(path, &err);
  if (!tree) std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
  return tree;
}

int cmdTree(const std::vector<std::string>& args) {
  std::string trace;
  std::size_t top_k = 5;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = static_cast<std::size_t>(std::strtoul(args[++i].c_str(),
                                                    nullptr, 10));
    } else if (args[i] == "--json") {
      json = true;
    } else if (trace.empty() && args[i][0] != '-') {
      trace = args[i];
    } else {
      return usage();
    }
  }
  if (trace.empty()) return usage();
  std::optional<PathTree> tree = loadTree(trace);
  if (!tree) return 1;

  if (json) {
    // Counters + attribution as one JSON object (shared serializer).
    obs::JsonWriter w;
    const TreeCounts c = tree->counts();
    w.beginObject();
    w.field("paths", c.total());
    w.field("completed", c.completed);
    w.field("errors", c.error);
    w.field("infeasible", c.infeasible);
    w.field("limited", c.limited);
    w.field("unexplored", c.unexplored);
    w.field("instructions", c.instructions);
    w.field("tests", c.tests);
    w.field("jobs", tree->jobs());
    w.key("timing").beginObject();
    w.field("t_solver_us", tree->totalUs("solver"));
    w.field("t_rtl_us", tree->totalUs("rtl"));
    w.field("t_iss_us", tree->totalUs("iss"));
    w.endObject();
    w.key("by_class").beginObject();
    for (const auto& [tag, us] : tree->timeByTag("class:", "solver"))
      w.field(tag.substr(6), us);
    w.endObject();
    w.key("top_paths").beginArray();
    for (const PathNode* n : tree->topPaths(top_k, "solver")) {
      w.beginObject();
      w.field("path", n->id);
      w.field("end", n->end);
      w.field("instr", n->instructions);
      w.field("t_solver_us", n->solverUs());
      w.endObject();
    }
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::fputs(tree->renderReport(top_k).c_str(), stdout);
  }
  return 0;
}

int cmdCoverage(const std::vector<std::string>& args) {
  std::string trace, html;
  bool json = false, holes = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--html" && i + 1 < args.size()) {
      html = args[++i];
    } else if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--holes") {
      holes = true;
    } else if (trace.empty() && args[i][0] != '-') {
      trace = args[i];
    } else {
      return usage();
    }
  }
  if (trace.empty()) return usage();
  std::optional<PathTree> tree = loadTree(trace);
  if (!tree) return 1;
  const core::CoverageCollector cov = coverageFromTree(*tree);

  if (!html.empty()) {
    if (!writeHtmlReport(html, cov, &*tree)) {
      std::fprintf(stderr, "rvsym-report: cannot write %s\n", html.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", html.c_str());
  }
  if (json) {
    std::printf("%s\n", cov.toJson().c_str());
  } else {
    std::fputs(cov.summary().c_str(), stdout);
    if (holes) std::fputs(cov.holeReport().c_str(), stdout);
  }
  return 0;
}

int cmdDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  std::string err;
  std::optional<RunArtifacts> a = loadRun(args[0], &err);
  if (!a) {
    std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
    return 2;
  }
  std::optional<RunArtifacts> b = loadRun(args[1], &err);
  if (!b) {
    std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
    return 2;
  }
  const DiffResult result = diffRuns(*a, *b);
  std::fputs(result.render().c_str(), stdout);
  return result.identical() ? 0 : 1;
}

int cmdTimeseries(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  std::string err;
  std::optional<TimeseriesRun> a = loadTimeseries(args[0], &err);
  if (!a) {
    std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
    return 2;
  }
  if (args.size() == 1) {
    std::fputs(renderTimeseriesSummary(*a).c_str(), stdout);
    return 0;
  }
  std::optional<TimeseriesRun> b = loadTimeseries(args[1], &err);
  if (!b) {
    std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
    return 2;
  }
  const std::vector<std::string> diffs = diffTimeseries(*a, *b);
  if (diffs.empty()) {
    std::printf("timeseries runs are identical on the deterministic "
                "surface\n");
    return 0;
  }
  for (const std::string& d : diffs) std::printf("  %s\n", d.c_str());
  return 1;
}

int cmdTraceEvents(const std::vector<std::string>& args) {
  std::string dir, out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--merge" && i + 1 < args.size()) {
      dir = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();
  if (out.empty()) out = dir + "/merged.trace.json";
  std::string err;
  const auto stats = obs::fleet::mergeChromeTraceDir(dir, out, &err);
  if (!stats) {
    std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %llu files, %llu events -> %s",
              static_cast<unsigned long long>(stats->files),
              static_cast<unsigned long long>(stats->events), out.c_str());
  if (stats->skipped)
    std::printf(" (%llu inputs skipped)",
                static_cast<unsigned long long>(stats->skipped));
  std::printf("\n");
  return 0;
}

/// `runs.rvhx` or the state dir holding it both address the store.
std::string historyPath(const std::string& arg) {
  std::error_code ec;
  if (std::filesystem::is_directory(arg, ec)) return arg + "/runs.rvhx";
  return arg;
}

int cmdHistory(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string verb = args[0];
  std::string store_arg, job, baseline;
  obs::fleet::RegressOptions ropts;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--baseline" && i + 1 < args.size()) {
      baseline = args[++i];
    } else if (args[i] == "--slack" && i + 1 < args.size()) {
      ropts.slack_pct = std::atof(args[++i].c_str());
    } else if (store_arg.empty() && args[i][0] != '-') {
      store_arg = args[i];
    } else if (job.empty() && args[i][0] != '-') {
      job = args[i];
    } else {
      return usage();
    }
  }
  if (store_arg.empty()) return usage();
  obs::fleet::RunHistory store(historyPath(store_arg));
  std::vector<std::string> warnings;
  const std::vector<obs::fleet::RunRecord> runs = store.loadAll(&warnings);
  for (const std::string& w : warnings)
    std::fprintf(stderr, "rvsym-report: %s\n", w.c_str());

  if (verb == "list") {
    if (!job.empty()) return usage();
    std::fputs(obs::fleet::renderHistoryList(runs).c_str(), stdout);
    return 0;
  }
  if (verb == "show") {
    if (job.empty()) return usage();
    for (const auto& r : runs) {
      if (r.job != job) continue;
      std::fputs(obs::fleet::renderHistoryShow(r).c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "rvsym-report: no run record for job '%s'\n",
                 job.c_str());
    return 1;
  }
  if (verb == "regress") {
    if (baseline.empty() || !job.empty()) return usage();
    std::string err;
    const auto findings =
        obs::fleet::flagRegressions(runs, baseline, ropts, &err);
    if (!findings) {
      std::fprintf(stderr, "rvsym-report: %s\n", err.c_str());
      return 2;
    }
    if (findings->empty()) {
      std::printf("no regressions: %zu runs within budget\n", runs.size());
      return 0;
    }
    for (const auto& f : *findings)
      std::printf("REGRESSION %s: %.0f us/unit exceeds budget %.0f us/unit\n",
                  f.job.c_str(), f.us_per_unit, f.budget_us);
    return 1;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  if (cmd == "tree") return cmdTree(args);
  if (cmd == "coverage") return cmdCoverage(args);
  if (cmd == "diff") return cmdDiff(args);
  if (cmd == "timeseries") return cmdTimeseries(args);
  if (cmd == "trace-events") return cmdTraceEvents(args);
  if (cmd == "history") return cmdHistory(args);
  return usage();
}
