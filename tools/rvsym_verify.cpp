// rvsym-verify — the command-line front end of the verification flow:
// the tool a downstream user runs instead of writing C++ against the
// library. It wires scenario selection, fault injection, engine
// configuration, finding classification, coverage reporting and test-
// vector export into one binary.
//
//   rvsym-verify                         # audit the authentic MicroRV32/VP pair
//   rvsym-verify --fault E5              # hunt one injected error (fixed DUT)
//   rvsym-verify --mode fuzz --fault E3  # random-testing baseline
//   rvsym-verify --mode hybrid --fault X0
//   rvsym-verify --scenario system --limit 2 --paths 3000
//   rvsym-verify --ktest-dir out/       # export the generated test set
//   rvsym-verify --fault E5 --repro-dir out/ --trace-out run.jsonl
//   rvsym-verify --replay out/bundle-000   # re-run a mismatch bundle
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/coverage.hpp"
#include "core/session.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "fuzz/hybrid.hpp"
#include "obs/bundle.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "rv32/instr.hpp"
#include "solver/options.hpp"
#include "solver/telemetry.hpp"
#include "symex/ktest.hpp"

namespace {

using namespace rvsym;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --mode MODE        symbolic | fuzz | hybrid      (default symbolic)\n"
      "  --fault ID         inject E0..E9 / X0..X1 or a mutation-space id\n"
      "                     (e.g. dec:slli:b25, see rvsym-mutate list)\n"
      "  --scenario S       all | rv32i | system | opcode=0xNN | csr=0xNNN\n"
      "  --limit N          instruction limit              (default 1)\n"
      "  --regs N           symbolic registers             (default 2)\n"
      "  --paths N          path budget                    (default 2000)\n"
      "  --seconds S        wall-clock budget              (default 60)\n"
      "  --searcher S       dfs | bfs | random             (default dfs)\n"
      "  --jobs N           parallel exploration workers   (default 1)\n"
      "  --solver-opt S     solver acceleration layers: all | none | csv of\n"
      "                     cex,cores,rewrite,slice        (default all)\n"
      "  --stop-on-error    stop at the first mismatch\n"
      "  --monitor          enable the RVFI self-consistency monitor\n"
      "  --ktest-dir DIR    export every test vector\n"
      "  --coverage         print test-set coverage\n"
      "  --trace-out FILE   JSONL path-lifecycle event trace\n"
      "  --metrics-out FILE engine report + metrics registry as JSON\n"
      "  --heartbeat S      stderr progress line every S seconds\n"
      "  --timeseries-out F append rvsym-timeseries-v1 JSONL samples\n"
      "                     (watch live with rvsym-top)\n"
      "  --status-file F    atomically rewrite the latest sample as one\n"
      "                     JSON object every interval\n"
      "  --sample-interval S  sampling interval in seconds (default 0.5)\n"
      "  --trace-events-out F Chrome Trace Event JSON (phase + solver\n"
      "                     spans, one track per worker; open in Perfetto)\n"
      "  --profile-out FILE flamegraph-compatible folded phase stacks\n"
      "  --slow-query-dir D dump solver queries slower than the threshold\n"
      "                     as a replayable corpus (see rvsym-profile)\n"
      "  --slow-query-us N  slow-query threshold in microseconds\n"
      "                     (default 10000)\n"
      "  --repro-dir DIR    dump a repro bundle per voter mismatch\n"
      "  --replay BUNDLE    re-run a repro bundle concretely and exit\n"
      "  --help\n",
      argv0);
}

/// --replay mode: everything the run needs is inside the bundle.
int runReplay(const std::string& bundle_dir) {
  const auto manifest = obs::loadBundleManifest(bundle_dir);
  if (!manifest) {
    std::fprintf(stderr, "cannot load bundle manifest in %s\n",
                 bundle_dir.c_str());
    return 2;
  }
  std::printf("replaying %s (fault=%s scenario=%s limit=%u regs=%u)\n",
              bundle_dir.c_str(),
              manifest->fault_id.empty() ? "-" : manifest->fault_id.c_str(),
              manifest->scenario.c_str(), manifest->instr_limit,
              manifest->num_symbolic_regs);
  std::printf("recorded: %s\n", manifest->message.c_str());

  const auto result = obs::replayBundle(bundle_dir);
  if (!result) {
    std::fprintf(stderr, "cannot replay bundle (missing test.rvtest?)\n");
    return 2;
  }
  if (!result->reproduced) {
    std::printf("replay:   no mismatch — NOT reproduced\n");
    return 1;
  }
  std::printf("replay:   %s\n", result->message.c_str());
  std::printf("verdict:  %s\n", result->verdict_matches
                                    ? "reproduced on the recorded channel"
                                    : "mismatch on a DIFFERENT channel");
  return result->verdict_matches ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "symbolic";
  std::string fault_id;
  std::string scenario = "all";
  std::string searcher = "dfs";
  std::string solver_opt_spec = "all";
  std::string ktest_dir;
  std::string trace_out, metrics_out, repro_dir, replay_dir;
  std::string profile_out, slow_query_dir;
  std::string timeseries_out, status_file, trace_events_out;
  unsigned limit = 1, regs = 2, jobs = 1;
  std::uint64_t paths = 2000;
  std::uint64_t slow_query_us = 10000;
  double seconds = 60;
  double heartbeat = 0;
  double sample_interval = 0.5;
  bool stop_on_error = false;
  bool want_coverage = false;
  bool monitor = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--mode") mode = value();
    else if (arg == "--fault") fault_id = value();
    else if (arg == "--scenario") scenario = value();
    else if (arg == "--limit") limit = static_cast<unsigned>(std::atoi(value()));
    else if (arg == "--regs") regs = static_cast<unsigned>(std::atoi(value()));
    else if (arg == "--paths") paths = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--seconds") seconds = std::atof(value());
    else if (arg == "--searcher") searcher = value();
    else if (arg == "--jobs") jobs = static_cast<unsigned>(std::atoi(value()));
    else if (arg == "--solver-opt") solver_opt_spec = value();
    else if (arg == "--ktest-dir") ktest_dir = value();
    else if (arg == "--trace-out") trace_out = value();
    else if (arg == "--metrics-out") metrics_out = value();
    else if (arg == "--heartbeat") heartbeat = std::atof(value());
    else if (arg == "--timeseries-out") timeseries_out = value();
    else if (arg == "--status-file") status_file = value();
    else if (arg == "--sample-interval") sample_interval = std::atof(value());
    else if (arg == "--trace-events-out") trace_events_out = value();
    else if (arg == "--profile-out") profile_out = value();
    else if (arg == "--slow-query-dir") slow_query_dir = value();
    else if (arg == "--slow-query-us")
      slow_query_us = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--repro-dir") repro_dir = value();
    else if (arg == "--replay") replay_dir = value();
    else if (arg == "--stop-on-error") stop_on_error = true;
    else if (arg == "--coverage") want_coverage = true;
    else if (arg == "--monitor") monitor = true;
    else if (arg == "--help") { usage(argv[0]); return 0; }
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!replay_dir.empty()) return runReplay(replay_dir);

  solver::SolverOptions solver_opt;
  {
    std::string err;
    if (!solver::parseSolverOpt(solver_opt_spec, &solver_opt, &err)) {
      std::fprintf(stderr, "--solver-opt: %s\n", err.c_str());
      return 2;
    }
  }

  // --- Build the co-simulation configuration ------------------------------
  core::CosimConfig cfg;
  if (!fault_id.empty()) {
    cfg.rtl = rtl::fixedRtlConfig();
    cfg.iss.csr = iss::CsrConfig::specCorrect();
    try {
      // Paper ids resolve through the registry, anything else as a
      // mutation-space id — the same vocabulary bundle replay accepts.
      fault::errorById(fault_id).apply(cfg);
    } catch (const std::out_of_range&) {
      try {
        mut::mutantById(fault_id).apply(cfg);
      } catch (const std::out_of_range& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    }
    stop_on_error = true;
  }
  cfg.instr_limit = limit;
  cfg.num_symbolic_regs = regs;
  cfg.enable_rvfi_monitor = monitor;

  if (scenario == "rv32i" || !fault_id.empty())
    cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
  else if (scenario == "system")
    cfg.instr_constraint = core::CoSimulation::onlySystemInstructions();
  else if (scenario.rfind("opcode=", 0) == 0)
    cfg.instr_constraint = core::CoSimulation::onlyMajorOpcode(
        static_cast<std::uint32_t>(std::strtoul(scenario.c_str() + 7, nullptr, 0)));
  else if (scenario.rfind("csr=", 0) == 0)
    cfg.instr_constraint = core::CoSimulation::onlyCsrAddress(
        static_cast<std::uint16_t>(std::strtoul(scenario.c_str() + 4, nullptr, 0)));
  else if (scenario != "all") {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 2;
  }

  // --- Fuzz / hybrid modes ---------------------------------------------------
  if (mode == "fuzz") {
    fuzz::FuzzOptions fopts;
    fopts.max_seconds = seconds;
    fopts.max_tests = 0;
    fopts.instr_limit = limit;
    fuzz::CosimFuzzer fuzzer;
    const fuzz::FuzzReport r = fuzzer.run(cfg, fopts);
    std::printf("fuzzing: %llu tests in %.2fs — %s\n",
                static_cast<unsigned long long>(r.tests), r.seconds,
                r.found ? "MISMATCH FOUND" : "no mismatch");
    if (r.found)
      std::printf("  %s\n  witness: %s\n", r.mismatch_message.c_str(),
                  rv32::disassemble(r.witness_instr).c_str());
    return r.found ? 0 : 1;
  }
  if (mode == "hybrid") {
    fuzz::HybridOptions hopts;
    hopts.symex.max_seconds = seconds;
    hopts.symex.max_paths = paths;
    const fuzz::HybridReport r = fuzz::runHybrid(cfg, hopts);
    std::printf("hybrid: fuzz %llu tests (%.2fs), symex %llu paths (%.2fs)\n",
                static_cast<unsigned long long>(r.fuzz_tests), r.fuzz_seconds,
                static_cast<unsigned long long>(r.symex_paths),
                r.symex_seconds);
    switch (r.found_by) {
      case fuzz::HybridReport::FoundBy::Fuzzing:
        std::printf("MISMATCH FOUND by fuzzing phase: %s\n", r.message.c_str());
        break;
      case fuzz::HybridReport::FoundBy::Symbolic:
        std::printf("MISMATCH FOUND by symbolic phase: %s\n",
                    r.message.c_str());
        break;
      case fuzz::HybridReport::FoundBy::None:
        std::printf("no mismatch within budget\n");
        break;
    }
    return r.found() ? 0 : 1;
  }
  if (mode != "symbolic") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  // --- Observability ------------------------------------------------------
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  if (!trace_out.empty()) {
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot open --trace-out file '%s'\n",
                   trace_out.c_str());
      return 2;
    }
  }
  const bool want_metrics = !metrics_out.empty();
  // The live surfaces (sampler, status file) read the same registry the
  // --metrics-out dump serializes, so any of them turns it on.
  const bool want_registry = want_metrics || !timeseries_out.empty() ||
                             !status_file.empty();
  const bool want_spans = !trace_events_out.empty();

  // Solver telemetry: per-query timing into the registry plus the
  // slow-query corpus. On whenever a consumer exists (it implies
  // per-check solver timing, so keep it off for plain runs).
  std::unique_ptr<solver::SolverTelemetry> telemetry;
  if (!slow_query_dir.empty() || want_registry || want_spans) {
    solver::SolverTelemetry::Options topts;
    topts.corpus_dir = slow_query_dir;
    topts.slow_query_us = slow_query_us;
    telemetry = std::make_unique<solver::SolverTelemetry>(std::move(topts));
    if (want_registry) telemetry->attachMetrics(registry);
  }

  obs::PhaseProfiler profiler;
  obs::SpanCollector spans;
  if (want_spans) {
    // Phase spans (one per profiler frame) + per-query solver spans,
    // each on its recording thread's track.
    profiler.attachSpans(&spans);
    if (telemetry) telemetry->attachSpans(&spans);
  }

  // --- Symbolic verification session -------------------------------------------
  expr::ExprBuilder eb;
  core::SessionOptions options;
  options.cosim = cfg;
  if (want_registry) options.cosim.metrics = &registry;
  options.engine.max_paths = paths;
  options.engine.max_seconds = seconds;
  options.engine.stop_on_error = stop_on_error;
  options.engine.jobs = jobs == 0 ? 1 : jobs;
  options.engine.solver_opt = solver_opt;
  options.engine.trace = trace_sink.get();
  if (want_registry) options.engine.metrics = &registry;
  options.engine.heartbeat_seconds = heartbeat;
  options.engine.telemetry = telemetry.get();
  if (!profile_out.empty() || want_spans)
    options.engine.profiler = &profiler;
  if (searcher == "bfs")
    options.engine.searcher = symex::EngineOptions::Searcher::Bfs;
  else if (searcher == "random")
    options.engine.searcher = symex::EngineOptions::Searcher::Random;
  else if (searcher != "dfs") {
    std::fprintf(stderr, "unknown searcher '%s'\n", searcher.c_str());
    return 2;
  }

  obs::TimeseriesOptions ts_opts;
  ts_opts.out_path = timeseries_out;
  ts_opts.status_path = status_file;
  ts_opts.interval_s = sample_interval;
  ts_opts.kind = "verify";
  ts_opts.total_work = paths;
  obs::TimeseriesSampler sampler(ts_opts, registry);
  if (!timeseries_out.empty() || !status_file.empty()) {
    std::string err;
    if (!sampler.start(&err)) {
      std::fprintf(stderr, "timeseries sampler: %s\n", err.c_str());
      return 2;
    }
  }

  core::VerificationSession session(eb, options);
  const core::SessionReport report = session.run();
  sampler.stop();

  if (want_spans) {
    if (!spans.writeChromeTrace(trace_events_out))
      std::fprintf(stderr, "cannot write --trace-events-out file '%s'\n",
                   trace_events_out.c_str());
    else
      std::printf("wrote %zu trace-event spans to %s\n", spans.size(),
                  trace_events_out.c_str());
  }

  std::printf("explored %llu paths (%llu completed, %llu partial) — "
              "%llu instructions, %.2fs, %llu test vectors\n",
              static_cast<unsigned long long>(report.engine.totalPaths()),
              static_cast<unsigned long long>(report.engine.completed_paths),
              static_cast<unsigned long long>(report.engine.partialPaths()),
              static_cast<unsigned long long>(report.engine.instructions),
              report.engine.seconds,
              static_cast<unsigned long long>(report.engine.test_vectors));
  if (jobs > 1)
    std::printf("workers: %u — query cache: %llu hits / %llu misses\n", jobs,
                static_cast<unsigned long long>(report.engine.qcache_hits),
                static_cast<unsigned long long>(report.engine.qcache_misses));

  if (!report.findings.empty())
    std::printf("\n%s\n", core::renderFindingsTable(report.findings).c_str());
  else
    std::printf("no mismatches found\n");

  if (telemetry && !slow_query_dir.empty())
    std::printf("solver telemetry: %llu queries, %llu slow (> %llu us), "
                "%llu dumped to %s/\n",
                static_cast<unsigned long long>(telemetry->queries()),
                static_cast<unsigned long long>(telemetry->slowQueries()),
                static_cast<unsigned long long>(slow_query_us),
                static_cast<unsigned long long>(telemetry->dumpedQueries()),
                slow_query_dir.c_str());

  if (!profile_out.empty()) {
    std::ofstream out(profile_out, std::ios::binary);
    out << profiler.folded();
    if (!out)
      std::fprintf(stderr, "cannot write --profile-out file '%s'\n",
                   profile_out.c_str());
    else
      std::printf("wrote folded phase stacks to %s (%zu distinct stacks)\n",
                  profile_out.c_str(), profiler.distinctStacks());
  }

  if (want_coverage) {
    core::CoverageCollector cov;
    cov.addReport(report.engine);
    std::printf("\n%s", cov.summary().c_str());
  }
  if (!ktest_dir.empty()) {
    const std::size_t n =
        symex::exportReportVectors(report.engine, ktest_dir);
    std::printf("\nexported %zu test vectors to %s/\n", n, ktest_dir.c_str());
  }

  if (want_metrics) {
    // One document, one serializer: the engine report plus the registry.
    obs::JsonWriter w;
    w.beginObject();
    w.key("report").rawValue(symex::reportToJson(report.engine));
    w.key("metrics").rawValue(registry.toJson());
    w.endObject();
    std::ofstream out(metrics_out, std::ios::binary);
    out << w.str() << "\n";
    if (!out)
      std::fprintf(stderr, "cannot write --metrics-out file '%s'\n",
                   metrics_out.c_str());
  }

  if (!repro_dir.empty()) {
    obs::BundleDescriptor base;
    base.fault_id = fault_id;
    // The fault path forces the RV32I scenario above; record what the
    // run actually constrained, not what was asked for.
    base.scenario = fault_id.empty() ? scenario : "rv32i";
    base.instr_limit = limit;
    base.num_symbolic_regs = regs;
    const std::size_t n =
        obs::writeReportBundles(repro_dir, base, report.engine);
    std::printf("wrote %zu repro bundle%s to %s/\n", n, n == 1 ? "" : "s",
                repro_dir.c_str());
  }
  return fault_id.empty() ? 0 : (report.engine.error_paths > 0 ? 0 : 1);
}
