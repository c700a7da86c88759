// Ablation: search-strategy comparison (DFS / BFS / random) on the
// Table II error hunts. KLEE's default is a randomized searcher; our
// replay-based engine supports all three, and the bench shows how the
// strategy shifts time-to-detection per error class (decoder faults sit
// early in DFS order, control-flow faults favour whoever reaches the
// branch patterns first).
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cosim.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "harness/reporter.hpp"
#include "obs/json.hpp"
#include "symex/engine.hpp"

namespace {

using namespace rvsym;

struct Outcome {
  bool found;
  std::uint64_t paths;
  double seconds;
};

Outcome hunt(const fault::InjectedError& error,
             symex::EngineOptions::Searcher searcher) {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
  error.apply(cfg);

  symex::EngineOptions opts;
  opts.searcher = searcher;
  opts.stop_on_error = true;
  opts.max_seconds = 120;
  symex::Engine engine(opts);
  const auto report = engine.run(core::cosimFactory(cfg));
  return {report.error_paths > 0, report.totalPaths(), report.seconds};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("searchers");
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  std::printf("ABLATION — SEARCH STRATEGY (paths / time to detection)\n\n");
  std::printf("%-6s | %8s %9s | %8s %9s | %8s %9s\n", "Error", "DFS",
              "time[s]", "BFS", "time[s]", "Random", "time[s]");
  std::printf("%s\n", std::string(66, '-').c_str());

  obs::JsonWriter w;  // --out payload: one row per error x strategy
  w.beginObject();
  w.key("rows").beginArray();

  double totals[3] = {0, 0, 0};
  int found[3] = {0, 0, 0};
  for (const fault::InjectedError& error : fault::allErrors()) {
    const Outcome dfs = hunt(error, symex::EngineOptions::Searcher::Dfs);
    const Outcome bfs = hunt(error, symex::EngineOptions::Searcher::Bfs);
    const Outcome rnd = hunt(error, symex::EngineOptions::Searcher::Random);
    totals[0] += dfs.seconds;
    totals[1] += bfs.seconds;
    totals[2] += rnd.seconds;
    found[0] += dfs.found;
    found[1] += bfs.found;
    found[2] += rnd.found;
    std::printf("%-6s | %8llu %9.3f | %8llu %9.3f | %8llu %9.3f\n", error.id,
                static_cast<unsigned long long>(dfs.paths), dfs.seconds,
                static_cast<unsigned long long>(bfs.paths), bfs.seconds,
                static_cast<unsigned long long>(rnd.paths), rnd.seconds);
    const struct {
      const char* name;
      const Outcome* o;
    } strategies[] = {{"dfs", &dfs}, {"bfs", &bfs}, {"random", &rnd}};
    for (const auto& s : strategies) {
      w.beginObject();
      w.field("error", error.id);
      w.field("searcher", s.name);
      w.field("found", s.o->found);
      w.field("paths", s.o->paths);
      w.field("seconds", s.o->seconds);
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
  std::printf("%s\n", std::string(66, '-').c_str());
  std::printf("found  | %5d/10 %9.3f | %5d/10 %9.3f | %5d/10 %9.3f\n",
              found[0], totals[0], found[1], totals[1], found[2], totals[2]);
  const bool ok = found[0] == 10 && found[1] == 10 && found[2] == 10;
  if (!out_path.empty()) {
    reporter.counter("found_dfs", static_cast<std::uint64_t>(found[0]))
        .counter("found_bfs", static_cast<std::uint64_t>(found[1]))
        .counter("found_random", static_cast<std::uint64_t>(found[2]))
        .metric("seconds_dfs", totals[0])
        .metric("seconds_bfs", totals[1])
        .metric("seconds_random", totals[2])
        .ok(ok)
        .payload(w.str());
    reporter.writeFile(out_path);
  }
  return ok ? 0 : 1;
}
