#include "serve/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mut/campaign.hpp"
#include "mut/space.hpp"
#include "obs/bundle.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_events.hpp"
#include "serve/job.hpp"
#include "serve/proto.hpp"
#include "solver/cachestore.hpp"
#include "solver/cexcache.hpp"
#include "solver/corpus.hpp"
#include "solver/options.hpp"
#include "solver/querycache.hpp"
#include "solver/telemetry.hpp"

namespace rvsym::serve {

namespace {

/// Everything one unit execution needs from the worker's long-lived
/// state.
struct WorkerState {
  obs::MetricsRegistry registry;
  solver::QueryCache qcache;
  solver::CexCache cexcache;
  std::unique_ptr<solver::CacheStore> store;
  /// Solver-query spans only (attachSpans, never attachMetrics: the
  /// fleet solver-query counter is shipped journal-aligned below so the
  /// scraped total provably equals the per-job journal sums).
  solver::SolverTelemetry telemetry;
  obs::SpanCollector spans;
};

/// Maps a job spec onto campaign options for judgeMutant. The scenario
/// and solver-opt strings were validated at submit time; unknown values
/// here (a hand-edited journal) degrade to the defaults.
mut::CampaignOptions campaignOptionsFor(const JobSpec& spec,
                                        const WorkerConfig& config,
                                        WorkerState& state) {
  mut::CampaignOptions opts;
  opts.jobs = 1;  // the daemon parallelizes across workers, not here
  opts.engine_jobs = config.engine_jobs;
  opts.min_instr_limit = spec.min_instr_limit;
  opts.max_instr_limit = spec.max_instr_limit;
  opts.max_paths_per_hunt = spec.max_paths_per_hunt;
  opts.max_seconds_per_hunt = spec.max_seconds_per_hunt;
  opts.num_symbolic_regs = spec.num_symbolic_regs;
  opts.scenario = spec.scenario;
  if (const auto c = obs::scenarioConstraint(spec.scenario))
    opts.instr_constraint = *c;
  solver::parseSolverOpt(spec.solver_opt, &opts.solver_opt);
  opts.shared_cex_cache = &state.cexcache;
  opts.metrics = &state.registry;
  opts.telemetry = &state.telemetry;
  return opts;
}

/// Resolves a mutate/verify unit id to its mutant. Verify units are
/// paper ids ("E0".."E9"); mutate units are space ids.
std::optional<mut::Mutant> unitMutant(const JobSpec& spec,
                                      const std::string& unit,
                                      std::string* error) {
  if (spec.kind == "verify") {
    for (const auto& pm : mut::paperMutants())
      if (unit == pm.paper_id) return pm.mutant;
    *error = "unknown paper mutant '" + unit + "'";
    return std::nullopt;
  }
  try {
    return mut::mutantById(unit);
  } catch (const std::out_of_range&) {
    *error = "unknown mutant id '" + unit + "'";
    return std::nullopt;
  }
}

/// Executes one unit and renders its record (the journal line, minus
/// the job/shard envelope the caller adds).
void runUnit(const JobSpec& spec, const std::string& unit,
             const WorkerConfig& config, WorkerState& state,
             obs::JsonWriter& w) {
  obs::Histogram& check_us = state.registry.histogram("solver.check_us");
  obs::Counter& qc_hits = state.registry.counter("qcache.hits");
  obs::Counter& qc_misses = state.registry.counter("qcache.misses");
  const std::uint64_t solves_before = check_us.count();
  const std::uint64_t hits_before = qc_hits.get();
  const std::uint64_t misses_before = qc_misses.get();

  if (spec.kind == "replay") {
    const auto start = std::chrono::steady_clock::now();
    expr::ExprBuilder eb;
    std::string err;
    const auto q =
        solver::loadQueryFile(eb, spec.corpus_dir + "/" + unit, &err);
    if (!q) {
      w.field("error", err);
      return;
    }
    solver::ReplayOptions ro;
    solver::parseSolverOpt(spec.solver_opt, &ro.solver_opt);
    ro.query_cache = &state.qcache;
    ro.cex_cache = &state.cexcache;
    const solver::ReplayOutcome out = solver::replayQueryOpt(eb, *q, ro);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    w.field("verdict", solver::verdictName(out.verdict));
    w.field("via", out.via);
    w.field("t_seconds", seconds);
    w.field("t_solve_us", out.solve_us);
    w.field("qc_sat_solves",
            std::uint64_t{std::string_view(out.via) == "solve" ? 1u : 0u});
    return;
  }

  std::string err;
  const auto m = unitMutant(spec, unit, &err);
  if (!m) {
    w.field("error", err);
    return;
  }
  const mut::CampaignOptions opts =
      campaignOptionsFor(spec, config, state);
  const mut::MutantResult r = mut::judgeMutant(*m, opts, &state.qcache, {});
  w.field("verdict", mut::verdictName(r.verdict));
  if (r.verdict == mut::Verdict::Killed) {
    w.field("kill_instr_limit", r.kill_instr_limit);
    w.field("kill_message", r.kill_message);
  }
  w.field("instructions", r.instructions);
  w.field("paths", r.paths);
  w.field("partial_paths", r.partial_paths);
  w.field("solver_checks", r.solver_checks);
  // Mirror the journal field into the registry so the fleet-wide
  // rvsym_solver_queries_total exposition equals the journal sums
  // exactly (telemetry's own counter also covers checks the cache
  // layers absorbed, which the journal does not — hence the mirror).
  state.registry.counter("solver.queries").add(r.solver_checks);
  w.field("t_seconds", r.seconds);
  w.field("qc_sat_solves", check_us.count() - solves_before);
  w.field("qc_hits", qc_hits.get() - hits_before);
  w.field("qc_misses", qc_misses.get() - misses_before);
}

/// One metrics_report frame: the full registry snapshot (cumulative
/// over the worker's lifetime — the daemon keeps the latest per worker
/// and sums across workers, DESIGN.md §13).
bool sendMetricsReport(int fd, WorkerState& state, const WorkerConfig& config,
                       const std::string& job, std::uint64_t shard) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("ev", "metrics_report");
  w.field("tag", config.tag);
  w.field("job", job);
  w.field("shard", shard);
  w.key("registry").rawValue(state.registry.toJson());
  w.endObject();
  return writeFrame(fd, w.str());
}

/// One spans_report frame: drains the collector. epoch_us anchors the
/// batch on the machine-wide steady clock so the daemon-side trace
/// files merge onto one timeline.
bool sendSpansReport(int fd, WorkerState& state, const WorkerConfig& config,
                     const std::string& job, std::uint64_t shard) {
  const std::vector<obs::Span> batch = state.spans.drain();
  if (batch.empty()) return true;
  obs::JsonWriter w;
  w.beginObject();
  w.field("ev", "spans_report");
  w.field("tag", config.tag);
  w.field("job", job);
  w.field("shard", shard);
  w.field("epoch_us", state.spans.epochSteadyUs());
  w.key("spans").beginArray();
  for (const obs::Span& s : batch) {
    w.beginObject();
    w.field("name", s.name);
    w.field("cat", s.cat);
    w.field("tid", static_cast<std::uint64_t>(s.tid));
    w.field("ts_us", s.ts_us);
    w.field("dur_us", s.dur_us);
    if (!s.args.empty()) {
      w.key("args").beginObject();
      for (const auto& [k, v] : s.args) w.key(k).rawValue(v);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return writeFrame(fd, w.str());
}

}  // namespace

int workerMain(int fd, const WorkerConfig& config) {
  WorkerState state;
  state.qcache.attachMetrics(state.registry);
  state.cexcache.attachMetrics(state.registry);
  state.telemetry.attachSpans(&state.spans);

  solver::CacheStore::LoadStats loaded;
  if (!config.cache_dir.empty()) {
    state.store = std::make_unique<solver::CacheStore>(config.cache_dir,
                                                       config.tag);
    loaded = state.store->load(&state.qcache, &state.cexcache);
  }

  // Process mode: a judging crash kills only this worker; the dead
  // socket tells the daemon to fail the job — the daemon itself never
  // sees the signal.
  unsigned crash_after = config.fail_after_units;
  bool crash_hard = false;
  if (const char* env = std::getenv("RVSYM_SERVE_CRASH_AFTER_UNITS")) {
    crash_after = static_cast<unsigned>(std::atoi(env));
    crash_hard = true;
  }

  {
    obs::JsonWriter hello;
    hello.beginObject();
    hello.field("ev", "hello");
    hello.field("tag", config.tag);
    hello.field("loaded_verdicts", loaded.verdicts);
    hello.field("loaded_models", loaded.models);
    hello.field("loaded_cores", loaded.cores);
    hello.endObject();
    if (!writeFrame(fd, hello.str())) return 1;
  }

  std::uint64_t units_done = 0;
  for (;;) {
    std::string err;
    const auto frame = readFrame(fd, &err);
    if (!frame) {
      if (!err.empty())
        std::fprintf(stderr, "serve-worker: %s\n", err.c_str());
      return err.empty() ? 0 : 1;
    }
    const auto msg = obs::analyze::parseJson(*frame);
    if (!msg) continue;
    const std::string cmd = msg->getString("cmd").value_or("");
    if (cmd == "exit") {
      if (state.store) state.store->absorb(&state.qcache, &state.cexcache);
      return 0;
    }
    if (cmd != "shard") continue;

    const std::string job = msg->getString("job").value_or("");
    const std::uint64_t shard = msg->getU64("shard").value_or(0);
    const obs::analyze::JsonValue* spec_v = msg->find("spec");
    std::optional<JobSpec> spec;
    if (spec_v) spec = JobSpec::fromJson(*spec_v);
    std::vector<std::string> units;
    if (const auto* arr = msg->find("units"); arr && arr->isArray())
      for (const auto& u : arr->items())
        if (u.isString()) units.push_back(u.asString());

    const std::uint64_t shard_t0 = state.spans.nowUs();
    for (const std::string& unit : units) {
      const std::uint64_t unit_t0 = state.spans.nowUs();
      obs::JsonWriter w;
      w.beginObject();
      w.field("ev", "unit");
      w.field("job", job);
      w.field("shard", shard);
      w.field("unit", unit);
      if (spec)
        runUnit(*spec, unit, config, state, w);
      else
        w.field("error", "shard carried no parsable spec");
      w.endObject();
      if (!writeFrame(fd, w.str())) return 1;
      state.registry.counter("serve.units").add(1);
      {
        obs::Span s;
        s.name = "unit " + unit;
        s.cat = "phase";
        s.tid = state.spans.threadTrack();
        s.ts_us = unit_t0;
        s.dur_us = state.spans.nowUs() - unit_t0;
        s.args = {{"job", "\"" + obs::jsonEscape(job) + "\""},
                  {"shard", std::to_string(shard)}};
        state.spans.add(std::move(s));
      }
      // Per-unit shipping keeps the daemon's aggregate current: when a
      // job finalizes, every one of its units' counters has landed.
      if (!sendMetricsReport(fd, state, config, job, shard)) return 1;
      ++units_done;
      if (crash_after != 0 && units_done >= crash_after) {
        // Deterministic mid-shard death for the resilience tests: a
        // real fatal signal in process mode, a dropped connection in
        // thread mode.
        if (crash_hard) std::raise(SIGSEGV);
        ::close(fd);
        return 3;
      }
    }

    // Persist what this shard learned before reporting it done, so a
    // warm restart never re-solves what a finished shard already paid
    // for.
    solver::CacheStore::AbsorbStats absorbed;
    if (state.store)
      absorbed = state.store->absorb(&state.qcache, &state.cexcache);
    // Job and shard envelope spans over the whole judging interval:
    // added parent-first at the same (tid, ts), so the sorted trace —
    // and the cross-process merge — nests job -> shard -> unit ->
    // solver-query on this worker's track.
    {
      const std::uint64_t now = state.spans.nowUs();
      obs::Span js;
      js.name = "job " + job;
      js.cat = "phase";
      js.tid = state.spans.threadTrack();
      js.ts_us = shard_t0;
      js.dur_us = now - shard_t0;
      js.args = {{"job", "\"" + obs::jsonEscape(job) + "\""}};
      obs::Span ss;
      ss.name = "shard " + job + "/" + std::to_string(shard);
      ss.cat = "phase";
      ss.tid = js.tid;
      ss.ts_us = shard_t0;
      ss.dur_us = js.dur_us;
      ss.args = {{"job", "\"" + obs::jsonEscape(job) + "\""},
                 {"shard", std::to_string(shard)},
                 {"units", std::to_string(units.size())}};
      state.spans.add(std::move(js));
      state.spans.add(std::move(ss));
    }
    if (!sendSpansReport(fd, state, config, job, shard)) return 1;
    obs::JsonWriter w;
    w.beginObject();
    w.field("ev", "shard_done");
    w.field("job", job);
    w.field("shard", shard);
    w.field("absorbed_verdicts", absorbed.verdicts);
    w.field("absorbed_models", absorbed.models);
    w.field("absorbed_cores", absorbed.cores);
    w.endObject();
    if (!writeFrame(fd, w.str())) return 1;
  }
}

}  // namespace rvsym::serve
