// rvsym-profile — offline tooling over the slow-query corpus that
// solver telemetry dumps during a run (--slow-query-dir on
// rvsym-verify; solver/corpus.hpp documents the file format).
//
//   rvsym-profile replay [--solver-opt S] [--metrics-out FILE]
//                        [--heartbeat SECS] <file-or-dir>...
//       Re-solves every q_*.query file from scratch on the current
//       solver and compares the verdict against the one recorded when
//       the query was dumped. Prints per-query timing (recorded vs
//       replayed) so solver changes can be judged on the exact queries
//       that were slow. With --solver-opt, replays through the layered
//       acceleration pipeline (caches shared across the corpus) and
//       reports which layer answered each query — the offline ablation
//       console for DESIGN.md §10. Exit 1 when any verdict diverges (a
//       recorded Sat/Unsat is a semantic fact — divergence means a
//       solver bug), 2 on unreadable input.
//
//   rvsym-profile shrink <file> [--out FILE]
//       ddmin over the query's constraint conjuncts: finds a 1-minimal
//       subset that still replays to the recorded verdict and writes it
//       back in corpus format (default: <file>.min). The shrunken
//       query keeps the original assumption and verdict, so it replays
//       standalone.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "expr/builder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "solver/corpus.hpp"
#include "solver/options.hpp"

namespace {

using namespace rvsym;
namespace fs = std::filesystem;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s replay [--solver-opt S] [--metrics-out FILE]\n"
               "                 [--heartbeat SECS] <file-or-dir>...\n"
               "       %s shrink <file> [--out FILE]\n"
               "\n"
               "--solver-opt S: replay through the layered acceleration\n"
               "pipeline (S = all | none | csv of cex,cores,rewrite,slice)\n"
               "with caches shared across the corpus, and report which\n"
               "layer answered each query.\n"
               "--metrics-out: dump replay totals + the solver latency\n"
               "histogram as one JSON document; --heartbeat: progress\n"
               "lines on stderr during long corpus sweeps.\n",
               argv0, argv0);
  return 2;
}

/// Expands directories to the q_*.query files inside them.
std::vector<std::string> collectQueryFiles(
    const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      for (const fs::directory_entry& e : fs::directory_iterator(arg, ec))
        if (e.path().extension() == ".query")
          files.push_back(e.path().string());
    } else {
      files.push_back(arg);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmdReplay(const std::vector<std::string>& args) {
  bool accel = false;
  solver::SolverOptions sopt = solver::SolverOptions::none();
  std::vector<std::string> inputs;
  std::string metrics_out;
  double heartbeat_s = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--solver-opt" && i + 1 < args.size()) {
      std::string err;
      if (!solver::parseSolverOpt(args[++i], &sopt, &err)) {
        std::fprintf(stderr, "--solver-opt: %s\n", err.c_str());
        return 2;
      }
      accel = true;
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics_out = args[++i];
    } else if (args[i] == "--heartbeat" && i + 1 < args.size()) {
      heartbeat_s = std::atof(args[++i].c_str());
    } else {
      inputs.push_back(args[i]);
    }
  }
  const std::vector<std::string> files = collectQueryFiles(inputs);
  if (files.empty()) {
    std::fprintf(stderr, "no .query files found\n");
    return 2;
  }

  // Accelerated sweep: one builder/hasher and caches shared across the
  // whole corpus — the offline stand-in for a live run's cross-path
  // reuse. (The hasher memoizes by node pointer, so it must share the
  // builder's lifetime; hence one builder for all queries here, vs. the
  // fresh-per-query builder of the plain path below.)
  expr::ExprBuilder shared_eb;
  solver::CanonicalHasher shared_hasher;
  solver::QueryCache shared_qc;
  solver::CexCache shared_cex;
  solver::ReplayOptions ropts;
  ropts.solver_opt = sopt;
  ropts.query_cache = &shared_qc;
  ropts.cex_cache = sopt.cex_cache ? &shared_cex : nullptr;
  ropts.hasher = &shared_hasher;

  std::printf("%-38s %-8s %-8s %12s %12s  %-9s %s\n", "query", "recorded",
              "replayed", "was[us]", "now[us]", accel ? "via" : "", "verdict");
  int mismatches = 0, errors = 0;
  std::uint64_t was_total = 0, now_total = 0;
  std::map<std::string, int> via_counts;

  // Replay times feed the standard solver.check_us histogram so the
  // shared heartbeat helper renders the same percentiles a live run's
  // line shows.
  obs::MetricsRegistry registry;

  const auto sweep_start = std::chrono::steady_clock::now();
  auto next_heartbeat = sweep_start + std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(heartbeat_s));
  std::size_t replayed = 0;
  for (const std::string& path : files) {
    expr::ExprBuilder local_eb;  // plain path: fresh builder, no cross-talk
    expr::ExprBuilder& eb = accel ? shared_eb : local_eb;
    std::string err;
    const auto q = solver::loadQueryFile(eb, path, &err);
    const std::string base = fs::path(path).filename().string();
    if (!q) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
      ++errors;
      continue;
    }
    std::uint64_t now_us = 0;
    solver::CheckResult got;
    const char* via = "";
    if (accel) {
      const solver::ReplayOutcome out = solver::replayQueryOpt(eb, *q, ropts);
      got = out.verdict;
      now_us = out.solve_us;
      via = out.via;
      ++via_counts[via];
    } else {
      got = solver::replayQuery(eb, *q, &now_us);
    }
    // Unknown was never dumped by telemetry (budget artifact), so any
    // recorded verdict is a semantic fact the replay must reproduce.
    const bool match = got == q->verdict;
    if (!match) ++mismatches;
    was_total += q->sat_us;
    now_total += now_us;
    std::printf("%-38s %-8s %-8s %12llu %12llu  %-9s %s\n", base.c_str(),
                solver::verdictName(q->verdict), solver::verdictName(got),
                static_cast<unsigned long long>(q->sat_us),
                static_cast<unsigned long long>(now_us), via,
                match ? "ok" : "MISMATCH");

    registry.histogram("solver.check_us").record(now_us);
    ++replayed;
    if (heartbeat_s > 0 &&
        std::chrono::steady_clock::now() >= next_heartbeat) {
      obs::HeartbeatSnapshot hb;
      hb.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_start)
                         .count();
      hb.has_work = true;
      hb.work_label = "queries";
      hb.work_done = replayed;
      hb.work_total = files.size();
      hb.readRegistry(registry);
      if (mismatches) hb.extra = "MISMATCHES=" + std::to_string(mismatches);
      obs::emitHeartbeatLine(hb, "replay");
      next_heartbeat += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(heartbeat_s));
    }
  }
  std::printf("%zu queries, %d verdict mismatches, %d unreadable\n",
              files.size(), mismatches, errors);
  if (accel) {
    std::printf("solver-opt=%s: recorded %llu us, replayed %llu us;"
                " answered via",
                solver::solverOptName(sopt).c_str(),
                static_cast<unsigned long long>(was_total),
                static_cast<unsigned long long>(now_total));
    for (const auto& [name, count] : via_counts)
      std::printf(" %s=%d", name.c_str(), count);
    std::printf("\n");
  }
  if (!metrics_out.empty()) {
    obs::JsonWriter w;
    w.beginObject();
    w.key("replay").beginObject();
    w.field("queries", static_cast<std::uint64_t>(files.size()));
    w.field("mismatches", static_cast<std::uint64_t>(mismatches));
    w.field("unreadable", static_cast<std::uint64_t>(errors));
    w.field("recorded_us", was_total);
    w.field("replayed_us", now_total);
    if (accel) {
      w.field("solver_opt", solver::solverOptName(sopt));
      w.key("via").beginObject();
      for (const auto& [name, count] : via_counts)
        w.field(name, static_cast<std::uint64_t>(count));
      w.endObject();
    }
    w.endObject();
    w.key("metrics").rawValue(registry.toJson());
    w.endObject();
    std::ofstream out(metrics_out, std::ios::binary);
    out << w.str() << "\n";
    if (!out)
      std::fprintf(stderr, "cannot write --metrics-out file '%s'\n",
                   metrics_out.c_str());
  }
  if (errors) return 2;
  return mismatches == 0 ? 0 : 1;
}

int cmdShrink(const std::vector<std::string>& args) {
  std::string path;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size())
      out_path = args[++i];
    else if (path.empty())
      path = args[i];
    else {
      std::fprintf(stderr, "unexpected argument: %s\n", args[i].c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "shrink requires a query file\n");
    return 2;
  }
  if (out_path.empty()) out_path = path + ".min";

  expr::ExprBuilder eb;
  std::string err;
  const auto q = solver::loadQueryFile(eb, path, &err);
  if (!q) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  std::uint64_t replays = 0;
  const std::vector<expr::ExprRef> minimal =
      solver::ddminConstraints(eb, *q, &replays);

  solver::CorpusQuery reduced = *q;
  reduced.constraints = minimal;
  reduced.nodes = solver::countUniqueNodes([&] {
    std::vector<expr::ExprRef> roots = minimal;
    if (reduced.assumption) roots.push_back(reduced.assumption);
    return roots;
  }());
  const std::string text = solver::formatQuery(reduced);
  if (text.empty()) {
    std::fprintf(stderr, "cannot serialize reduced query\n");
    return 2;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  out << text;
  out.close();
  std::printf("%s: %zu -> %zu constraints (%llu replay solves), wrote %s\n",
              path.c_str(), q->constraints.size(), minimal.size(),
              static_cast<unsigned long long>(replays), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "replay") return cmdReplay(args);
  if (cmd == "shrink") return cmdShrink(args);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return usage(argv[0]);
}
