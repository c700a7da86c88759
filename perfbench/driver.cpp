// rvsym_perfbench — the in-process benchmark driver.
//
// Runs one workload through the public entry points the CLIs use:
// core::VerificationSession::run (as rvsym-verify does) and
// mut::CampaignRunner::run (as rvsym-mutate run does). It times those
// calls from outside and prints one JSON document on stdout: provenance,
// peak memory, and one record per repetition with wall and CPU time,
// per-verdict times, the deterministic work counters and the outcomes
// (finding keys or mutant verdicts). perfbench/run.py builds this
// binary, picks the workload inputs from the seed, checks the outcomes
// against the golden record and reduces the repetitions to metrics.
//
// Repetitions run back to back, each with fresh solver caches, and a new
// one starts only while it is predicted to end within --seconds (at
// least two run). With --trace 1, untraced and traced repetitions
// alternate (U T T U T T ..., at least U T T). A traced repetition
// attaches the observability hooks that already exist — PhaseProfiler
// with a SpanCollector, a MetricsRegistry and SolverTelemetry — through
// the public options, and derives the per-layer metrics from them.
//
//   rvsym_perfbench --kind sweep --jobs 4 --seconds 20 --trace 0
//   rvsym_perfbench --kind campaign --ops add,addi,xor,bne,lw --hunt-paths 300
//   rvsym_perfbench --kind campaign --mutants stuck:lui:b3=0 --hunt-paths 10
//   rvsym_perfbench ... --setup-only      # set up as a repetition would, exit
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "expr/builder.hpp"
#include "mut/campaign.hpp"
#include "mut/space.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace_events.hpp"
#include "rv32/instr.hpp"
#include "solver/telemetry.hpp"

namespace {

using namespace rvsym;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string kind;  ///< "sweep" | "campaign"
  unsigned jobs = 1;
  std::vector<std::string> ops;
  std::vector<std::string> mutant_ids;
  std::uint64_t hunt_paths = 300;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string folded_out;
};

double secondsOf(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::vector<std::string> splitList(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void parseArgs(int argc, char** argv, Config& c) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--kind") c.kind = next();
    else if (a == "--jobs") c.jobs = static_cast<unsigned>(std::stoul(next()));
    else if (a == "--ops") c.ops = splitList(next());
    else if (a == "--mutants") c.mutant_ids = splitList(next());
    else if (a == "--hunt-paths") c.hunt_paths = std::stoull(next());
    else if (a == "--seconds") c.seconds = std::stod(next());
    else if (a == "--trace") c.trace = next() != "0";
    else if (a == "--setup-only") c.setup_only = true;
    else if (a == "--folded-out") c.folded_out = next();
    else throw std::invalid_argument("unknown option " + a);
  }
  if (c.kind != "sweep" && c.kind != "campaign")
    throw std::invalid_argument("--kind must be sweep or campaign");
  if (c.jobs == 0) throw std::invalid_argument("--jobs must be at least 1");
}

/// The workload's inputs, built once before any repetition is timed.
struct Workload {
  core::SessionOptions session;
  mut::CampaignOptions campaign;
  std::vector<mut::Mutant> mutants;
};

Workload setUp(const Config& c) {
  Workload w;
  if (c.kind == "sweep") {
    // The unguided Table I audit of the authentic MicroRV32/VP pair: the
    // work of `rvsym-verify --limit 2 --paths 3000` (DFS, default
    // --solver-opt, test vectors kept) without its 60 s wall-clock
    // budget, so the work is fixed on any host.
    w.session.cosim.instr_limit = 2;
    w.session.cosim.num_symbolic_regs = 2;
    w.session.engine.max_paths = 3000;
    w.session.engine.max_seconds = 0;
    w.session.engine.jobs = c.jobs;
    return w;
  }
  if (!c.mutant_ids.empty()) {
    for (const std::string& id : c.mutant_ids)
      w.mutants.push_back(mut::mutantById(id));
  } else {
    mut::SpaceFilter filter;
    for (const std::string& name : c.ops) {
      bool found = false;
      for (std::size_t i = 1; i <= rv32::kLegalOpcodeCount; ++i) {
        const auto op = static_cast<rv32::Opcode>(i);
        if (name == rv32::opcodeName(op)) {
          filter.ops.push_back(op);
          found = true;
        }
      }
      if (!found) throw std::invalid_argument("unknown op " + name);
    }
    w.mutants = mut::enumerateSpace(filter);
  }
  if (w.mutants.empty()) throw std::invalid_argument("no mutants selected");
  // `rvsym-mutate run` defaults except for the budgets: hunts at limits
  // 1..2, the given path budget per hunt, and no wall-clock budget (0),
  // so a verdict never depends on host speed.
  w.campaign.jobs = 1;
  w.campaign.engine_jobs = 1;
  w.campaign.min_instr_limit = 1;
  w.campaign.max_instr_limit = 2;
  w.campaign.max_paths_per_hunt = c.hunt_paths;
  w.campaign.max_seconds_per_hunt = 0;
  return w;
}

/// Path spans folded in as the span collector is drained. Track 0 is the
/// calling thread (it registers first), which is the engine's committer.
struct PathTally {
  std::uint64_t executed = 0;
  std::uint64_t all_us = 0;        ///< path-span time on every track
  std::uint64_t committer_us = 0;  ///< path-span time on track 0
  std::vector<std::pair<std::uint64_t, std::uint64_t>> committer;  ///< [ts, end)
  std::vector<std::uint64_t> worker_ends;  ///< path-span ends, other tracks

  void add(const std::vector<obs::Span>& spans) {
    for (const obs::Span& s : spans) {
      if (s.name != "path") continue;
      ++executed;
      all_us += s.dur_us;
      if (s.tid == 0) {
        committer_us += s.dur_us;
        committer.emplace_back(s.ts_us, s.ts_us + s.dur_us);
      } else {
        worker_ends.push_back(s.ts_us + s.dur_us);
      }
    }
  }

  /// Time the committer sat outside a path span waiting for a worker:
  /// in each gap between its own path spans, from the gap's start to the
  /// last worker path span that ended inside the gap (the committer
  /// resumes when the path it waits for finishes).
  double commitWaitSeconds(std::uint64_t run_begin, std::uint64_t run_end) {
    if (worker_ends.empty()) return 0;
    std::sort(committer.begin(), committer.end());
    std::sort(worker_ends.begin(), worker_ends.end());
    std::uint64_t wait_us = 0;
    std::uint64_t gap_begin = run_begin;
    const auto gap = [&](std::uint64_t gap_end) {
      if (gap_end <= gap_begin) return;
      const auto it = std::upper_bound(worker_ends.begin(), worker_ends.end(),
                                       gap_end);
      if (it != worker_ends.begin() && *(it - 1) >= gap_begin)
        wait_us += *(it - 1) - gap_begin;
    };
    for (const auto& [ts, end] : committer) {
      gap(ts);
      gap_begin = std::max(gap_begin, end);
    }
    gap(run_end);
    return static_cast<double>(wait_us) * 1e-6;
  }
};

/// The hooks a traced repetition attaches. Never destroyed before exit:
/// PhaseProfiler and SpanCollector key thread-local state by address, so
/// no later repetition may get a collector at a recycled address.
struct Hooks {
  obs::MetricsRegistry registry;
  // 10 ms is rvsym-verify's default --slow-query-us; no corpus is written.
  solver::SolverTelemetry telemetry{solver::SolverTelemetry::Options{10000, ""}};
  obs::PhaseProfiler profiler;
  obs::SpanCollector spans;
  PathTally tally;

  Hooks() {
    telemetry.attachMetrics(registry);
    profiler.attachSpans(&spans);
    spans.threadTrack();  // the calling thread becomes track 0
  }
  Hooks(const Hooks&) = delete;
  Hooks& operator=(const Hooks&) = delete;
};

/// Work counters of one repetition that the engine or campaign report
/// exposes. `branches`/`knownbits` come from EngineReport only (campaign
/// reports do not carry them); test vectors of a campaign are read from
/// the registry in layerMetrics.
struct Counts {
  bool campaign = false;
  unsigned jobs = 1;
  std::uint64_t branches = 0;
  std::uint64_t knownbits = 0;
  std::uint64_t solver_checks = 0;
  std::uint64_t test_vectors = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;
  std::uint64_t killed = 0, survived = 0, equivalent = 0;
};

/// Self seconds per folded stack ("path;rtl;solver 1234" lines, µs).
std::map<std::string, double> selfSeconds(const std::string& folded) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    const std::size_t sp = line.rfind(' ');
    if (sp != std::string::npos)
      out[line.substr(0, sp)] += std::stod(line.substr(sp + 1)) * 1e-6;
    start = end + 1;
  }
  return out;
}

std::map<std::string, double> layerMetrics(Hooks& h, const Counts& n,
                                           double wall_s,
                                           std::uint64_t run_begin_us,
                                           std::uint64_t run_end_us) {
  h.tally.add(h.spans.drain());
  const std::map<std::string, double> self = selfSeconds(h.profiler.folded());
  const auto stack = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double inpath = 0;
  for (const auto& [name, s] : self) {
    const bool solver_leaf = name.size() > 7 &&
                             name.compare(name.size() - 7, 7, ";solver") == 0;
    if (solver_leaf && name != "path;solver") inpath += s;
  }
  obs::MetricsRegistry& r = h.registry;
  const obs::Histogram& sat = r.histogram("solver.sat_us");
  const obs::Histogram& blast = r.histogram("solver.bitblast_us");
  const double sat_s = static_cast<double>(sat.sumMicros()) * 1e-6;
  const double blast_s = static_cast<double>(blast.sumMicros()) * 1e-6;
  const auto count = [&](const char* name) {
    return static_cast<double>(r.counter(name).get());
  };
  const double committed = count("engine.paths_committed");
  // Campaign hunts store a test vector on every completed and error path
  // (stop-on-error, no conflict budget), so the registry's outcome
  // counters give the count their reports do not carry.
  const double test_vectors =
      n.campaign ? count("engine.paths_completed") + count("engine.paths_error")
                 : static_cast<double>(n.test_vectors);
  const double lookups = static_cast<double>(n.qcache_hits + n.qcache_misses);

  std::map<std::string, double> m;
  m["solver.testvector_model_s"] = stack("path;solver");
  m["solver.inpath_s"] = inpath;
  m["solver.inpath_other_s"] = inpath - sat_s - blast_s;
  m["solver.sat_s"] = sat_s;
  m["solver.bitblast_s"] = blast_s;
  m["solver.sat_solves"] = static_cast<double>(sat.count());
  m["solver.slow_queries"] = count("solver.slow_queries");
  m["solver.sat_p99_us"] = static_cast<double>(sat.quantileMicros(0.99));
  m["solver.qcache_hits"] = static_cast<double>(n.qcache_hits);
  m["solver.qcache_misses"] = static_cast<double>(n.qcache_misses);
  m["solver.qcache_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(n.qcache_hits) / lookups;
  m["solver.cex_model_hits"] = count("solver.cex_model_hits");
  m["solver.cex_core_hits"] = count("solver.cex_core_hits");
  m["solver.rewrite_decided"] = count("solver.rewrite_decided");
  m["solver.sliced_solves"] = count("solver.sliced_solves");
  m["symex.paths_committed"] = committed;
  m["symex.instructions"] = count("engine.instructions");
  m["symex.branches"] = static_cast<double>(n.branches);
  m["symex.solver_checks"] = static_cast<double>(n.solver_checks);
  m["symex.knownbits_decided"] = static_cast<double>(n.knownbits);
  m["symex.knownbits_ratio"] =
      n.branches == 0 ? 0
                      : static_cast<double>(n.knownbits) /
                            static_cast<double>(n.branches);
  m["symex.test_vectors"] = test_vectors;
  m["symex.path_self_s"] = stack("path");
  m["symex.outside_path_s"] =
      wall_s - static_cast<double>(h.tally.committer_us) * 1e-6;
  m["symex.worker_busy_ratio"] = static_cast<double>(h.tally.all_us) * 1e-6 /
                                 (static_cast<double>(n.jobs) * wall_s);
  m["symex.commit_wait_s"] = h.tally.commitWaitSeconds(run_begin_us, run_end_us);
  m["symex.paths_executed_minus_committed"] =
      static_cast<double>(h.tally.executed) - committed;
  m["core.rtl_s"] = stack("path;rtl");
  m["core.iss_s"] = stack("path;iss");
  m["core.voter_s"] = stack("path;voter");
  m["mut.killed"] = static_cast<double>(n.killed);
  m["mut.survived"] = static_cast<double>(n.survived);
  m["mut.equivalent"] = static_cast<double>(n.equivalent);
  return m;
}

/// Runs one repetition and writes its record into `w`.
void runRep(const Config& c, const Workload& wl, Hooks* hooks,
            obs::JsonWriter& w) {
  Counts n;
  n.jobs = c.kind == "sweep" ? c.jobs : 1;
  n.campaign = c.kind == "campaign";
  std::vector<double> verdict_ms;
  double wall_s = 0, cpu_s = 0;
  std::uint64_t run_begin_us = 0, run_end_us = 0;
  w.beginObject();
  w.field("traced", hooks != nullptr);

  if (c.kind == "sweep") {
    core::SessionOptions opts = wl.session;
    if (hooks) {
      // What rvsym-verify attaches for --metrics-out plus --profile-out
      // and --trace-events-out.
      opts.cosim.metrics = &hooks->registry;
      opts.engine.metrics = &hooks->registry;
      opts.engine.telemetry = &hooks->telemetry;
      opts.engine.profiler = &hooks->profiler;
      run_begin_us = hooks->spans.nowUs();
    }
    expr::ExprBuilder eb;
    core::VerificationSession session(eb, opts);
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    const core::SessionReport report = session.run();
    wall_s = secondsOf(Clock::now() - t0);
    cpu_s = cpuSeconds() - cpu0;
    if (hooks) run_end_us = hooks->spans.nowUs();
    // A sweep judges the whole design: one verdict per repetition.
    verdict_ms.push_back(wall_s * 1e3);

    const symex::EngineReport& e = report.engine;
    n.branches = e.branches;
    n.knownbits = e.knownbits_decided;
    n.solver_checks = e.solver_checks;
    n.test_vectors = e.test_vectors;
    n.qcache_hits = e.qcache_hits;
    n.qcache_misses = e.qcache_misses;
    w.field("paths", e.totalPaths());
    // The deterministic EngineReport fields (engine.hpp contract).
    w.key("report").beginObject();
    w.field("completed_paths", e.completed_paths);
    w.field("error_paths", e.error_paths);
    w.field("infeasible_paths", e.infeasible_paths);
    w.field("limited_paths", e.limited_paths);
    w.field("unexplored_forks", e.unexplored_forks);
    w.field("instructions", e.instructions);
    w.field("test_vectors", e.test_vectors);
    w.field("branches", e.branches);
    w.field("const_decided", e.const_decided);
    w.field("knownbits_decided", e.knownbits_decided);
    w.field("solver_decided", e.solver_decided);
    w.field("solver_checks", e.solver_checks);
    w.field("stopped_early", e.stopped_early);
    w.endObject();
    w.key("findings").beginArray();
    for (const core::Finding& f : report.findings) w.value(f.key());
    w.endArray();
  } else {
    mut::CampaignOptions opts = wl.campaign;
    if (hooks) {
      opts.metrics = &hooks->registry;
      opts.telemetry = &hooks->telemetry;
      opts.profiler = &hooks->profiler;
      run_begin_us = hooks->spans.nowUs();
    }
    // Verdict time: between successive on_result callbacks, the first
    // measured from the start of run().
    auto last = Clock::now();
    opts.on_result = [&](const mut::MutantResult&) {
      const auto now = Clock::now();
      verdict_ms.push_back(secondsOf(now - last) * 1e3);
      last = now;
      // Fold this mutant's spans in now, so they never pile up.
      if (hooks) hooks->tally.add(hooks->spans.drain());
    };
    mut::CampaignRunner runner(opts);
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    last = t0;
    const mut::CampaignReport report = runner.run(wl.mutants);
    wall_s = secondsOf(Clock::now() - t0);
    cpu_s = cpuSeconds() - cpu0;
    if (hooks) run_end_us = hooks->spans.nowUs();

    std::uint64_t paths = 0, instructions = 0;
    for (const mut::MutantResult& r : report.results) {
      paths += r.paths + r.partial_paths;
      instructions += r.instructions;
      n.solver_checks += r.solver_checks;
    }
    n.qcache_hits = report.qcache_hits;
    n.qcache_misses = report.qcache_misses;
    n.killed = report.killed;
    n.survived = report.survived;
    n.equivalent = report.equivalent;
    w.field("paths", paths);
    // Deterministic campaign totals (campaign.hpp contract).
    w.key("report").beginObject();
    w.field("instructions", instructions);
    w.field("solver_checks", n.solver_checks);
    w.field("killed", report.killed);
    w.field("survived", report.survived);
    w.field("equivalent", report.equivalent);
    w.endObject();
    w.key("verdicts").beginObject();
    for (const mut::MutantResult& r : report.results) {
      w.key(r.mutant.id()).beginObject();
      w.field("verdict", mut::verdictName(r.verdict));
      w.field("kill_limit", r.kill_instr_limit);
      w.field("kill_message", r.kill_message);
      w.endObject();
    }
    w.endObject();
  }

  w.field("wall_s", wall_s);
  w.field("cpu_s", cpu_s);
  w.key("verdict_ms").beginArray();
  for (double ms : verdict_ms) w.value(ms);
  w.endArray();
  if (hooks) {
    w.key("layers").beginObject();
    for (const auto& [name, v] :
         layerMetrics(*hooks, n, wall_s, run_begin_us, run_end_us))
      w.field(name, v);
    w.endObject();
    if (!c.folded_out.empty()) {
      std::ofstream out(c.folded_out, std::ios::binary);
      out << hooks->profiler.folded();
    }
  }
  w.endObject();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  Workload wl;
  try {
    parseArgs(argc, argv, c);
    wl = setUp(c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rvsym_perfbench: %s\n", e.what());
    return 2;
  }
  if (c.setup_only) {
    // Set-up is everything a repetition does before run(): the inputs
    // above plus the session or runner object.
    if (c.kind == "sweep") {
      expr::ExprBuilder eb;
      const core::VerificationSession session(eb, wl.session);
    } else {
      const mut::CampaignRunner runner(wl.campaign);
    }
    return 0;
  }

  obs::JsonWriter w;
  w.beginObject();
  w.key("provenance").beginObject();
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  w.field("assertions", false);
#else
  w.field("assertions", true);
#endif
  w.field("hardware_concurrency", std::thread::hardware_concurrency());
  w.endObject();

  std::vector<std::unique_ptr<Hooks>> hooks;  // see Hooks: kept until exit
  w.key("reps").beginArray();
  const auto begin = Clock::now();
  const unsigned min_reps = c.trace ? 3 : 2;
  for (unsigned i = 0;; ++i) {
    if (i >= min_reps) {
      const double elapsed = secondsOf(Clock::now() - begin);
      if (elapsed + elapsed / i > c.seconds) break;
    }
    Hooks* h = nullptr;
    if (c.trace && i % 3 != 0)
      h = hooks.emplace_back(std::make_unique<Hooks>()).get();
    runRep(c, wl, h, w);
  }
  w.endArray();
  w.field("peak_rss_mb", peakRssMb());
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
