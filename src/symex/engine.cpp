#include "symex/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "solver/cexcache.hpp"
#include "solver/querycache.hpp"

namespace rvsym::symex {

namespace {

/// Lower-case searcher name for trace events ("dfs" / "bfs" / "random").
const char* searcherName(EngineOptions::Searcher s) {
  switch (s) {
    case EngineOptions::Searcher::Dfs: return "dfs";
    case EngineOptions::Searcher::Bfs: return "bfs";
    case EngineOptions::Searcher::Random: return "random";
  }
  return "?";
}

/// One stderr progress line. Delegates to obs::formatHeartbeatLine — the
/// single formatter the campaign runner and the timeseries sampler also
/// use — after filling a HeartbeatSnapshot from the committed report.
/// `extra` (annotator output, query-cache hit rate) is appended verbatim;
/// with a metrics registry the snapshot gains the live solver section
/// (qps, latency percentiles, disposition split).
void emitHeartbeat(const EngineReport& report, double elapsed_s,
                   std::size_t worklist_depth, const std::string& extra,
                   obs::MetricsRegistry* metrics) {
  obs::HeartbeatSnapshot s;
  s.elapsed_s = elapsed_s;
  s.has_paths = true;
  s.paths_done = report.totalPaths() - report.unexplored_forks;
  s.paths_completed = report.completed_paths;
  s.paths_error = report.error_paths;
  s.paths_partial =
      report.error_paths + report.infeasible_paths + report.limited_paths;
  s.worklist_depth = worklist_depth;
  s.instructions = report.instructions;
  if (metrics != nullptr) s.readRegistry(*metrics);
  s.extra = extra;
  obs::emitHeartbeatLine(s, "rvsym");
}

/// Pre-resolved registry instruments bumped at commit time — the
/// race-free live-progress surface the timeseries sampler and any other
/// registry reader observe (obs/heartbeat.hpp readProgress). Commit order
/// is deterministic, so the final counter values are byte-identical
/// across --jobs; only the instants they move are timing-dependent. All
/// members stay null without a registry, making every call a no-op.
struct ProgressInstruments {
  /// Resolves engine.paths_* / engine.instructions / the
  /// engine.worklist_depth gauge, plus one engine.worker<N>.committed
  /// counter per worker for execution attribution.
  ProgressInstruments(obs::MetricsRegistry* registry, unsigned workers);
  /// Bumps the outcome counters for one committed path; `worker` is the
  /// index that executed (not committed) it.
  void commit(const PathRecord& record, unsigned worker);
  /// Mirrors the live worklist depth into the gauge (value + max).
  void depth(std::size_t n);

  obs::Counter* committed = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* error = nullptr;
  obs::Counter* partial = nullptr;
  obs::Counter* instructions = nullptr;
  obs::Gauge* worklist = nullptr;
  std::vector<obs::Counter*> per_worker;
};

ProgressInstruments::ProgressInstruments(obs::MetricsRegistry* registry,
                                         unsigned workers) {
  if (registry == nullptr) return;
  committed = &registry->counter("engine.paths_committed");
  completed = &registry->counter("engine.paths_completed");
  error = &registry->counter("engine.paths_error");
  partial = &registry->counter("engine.paths_partial");
  instructions = &registry->counter("engine.instructions");
  worklist = &registry->gauge("engine.worklist_depth");
  per_worker.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    per_worker.push_back(&registry->counter(
        "engine.worker" + std::to_string(i) + ".committed"));
}

void ProgressInstruments::commit(const PathRecord& record, unsigned worker) {
  if (committed == nullptr) return;
  committed->add();
  instructions->add(record.instructions);
  switch (record.end) {
    case PathEnd::Completed:
      completed->add();
      break;
    case PathEnd::Error:
      error->add();
      partial->add();
      break;
    case PathEnd::Infeasible:
    case PathEnd::SolverLimit:
    case PathEnd::Budget:
      partial->add();
      break;
  }
  if (worker < per_worker.size()) per_worker[worker]->add();
}

void ProgressInstruments::depth(std::size_t n) {
  if (worklist == nullptr) return;
  const auto depth = static_cast<std::int64_t>(n);
  worklist->set(depth);
  worklist->sampleMax(depth);
}

/// Merges the program's ExecState tags with the options tagger's output
/// into record.tags, sorted and deduplicated (the deterministic tag
/// contract of the path_end event).
void finalizeRecordTags(PathRecord& record,
                        const std::vector<std::string>& state_tags,
                        const EngineOptions& options) {
  record.tags = state_tags;
  if (options.path_tagger) {
    std::vector<std::string> derived = options.path_tagger(record);
    record.tags.insert(record.tags.end(),
                       std::make_move_iterator(derived.begin()),
                       std::make_move_iterator(derived.end()));
  }
  std::sort(record.tags.begin(), record.tags.end());
  record.tags.erase(std::unique(record.tags.begin(), record.tags.end()),
                    record.tags.end());
}

/// Builds the path_end trace event: lifecycle counters, deterministic
/// enrichment (`tags`, serialized `test`) and the timing-dependent
/// attribution fields (`t_solver_us`, one `t_<key>_us` per ExecState
/// time accumulator).
obs::TraceEvent makePathEndEvent(
    std::uint64_t path_id, const PathRecord& record, std::uint64_t forks,
    std::uint64_t solver_checks,
    const std::vector<std::pair<std::string, std::uint64_t>>& times) {
  obs::TraceEvent ev("path_end");
  ev.num("path", path_id)
      .str("end", pathEndName(record.end))
      .num("instr", record.instructions)
      .num("decisions", static_cast<std::uint64_t>(record.decisions.size()))
      .num("forks", forks)
      .num("solver_checks", solver_checks)
      .boolean("has_test", record.has_test)
      .str("msg", record.message);
  // Deterministic enrichment for the offline analyzer: workload tags and
  // the solved test vector ("name=width:hexvalue", space-joined —
  // canonical solver models make this byte-identical across jobs).
  if (!record.tags.empty()) {
    std::string joined;
    for (const std::string& t : record.tags) {
      if (!joined.empty()) joined += ',';
      joined += t;
    }
    ev.str("tags", joined);
  }
  if (record.has_test) {
    std::string test;
    char buf[32];
    for (const TestValue& v : record.test.values) {
      if (!test.empty()) test += ' ';
      std::snprintf(buf, sizeof buf, "=%u:%" PRIx64, v.width, v.value);
      test += v.name;
      test += buf;
    }
    ev.str("test", test);
  }
  // Timing-dependent attribution fields (t_ prefix per the trace
  // contract): SAT solve time plus any program-side accumulators.
  ev.num("t_solver_us", record.solver_us);
  for (const auto& [key, us] : times) ev.num("t_" + key + "_us", us);
  return ev;
}

/// Pops the next worklist item under the searcher policy. Random removal
/// is O(1): swap the chosen item with the back and pop (still a fixed
/// permutation for a fixed seed).
template <typename Deque>
typename Deque::value_type popNextItem(Deque& worklist,
                                       EngineOptions::Searcher searcher,
                                       std::uint32_t& rng_state) {
  typename Deque::value_type item;
  switch (searcher) {
    case EngineOptions::Searcher::Dfs:
      item = std::move(worklist.back());
      worklist.pop_back();
      break;
    case EngineOptions::Searcher::Bfs:
      item = std::move(worklist.front());
      worklist.pop_front();
      break;
    case EngineOptions::Searcher::Random: {
      // xorshift32; deterministic for a fixed seed.
      rng_state ^= rng_state << 13;
      rng_state ^= rng_state >> 17;
      rng_state ^= rng_state << 5;
      const std::size_t i = rng_state % worklist.size();
      if (i != worklist.size() - 1) std::swap(worklist[i], worklist.back());
      item = std::move(worklist.back());
      worklist.pop_back();
      break;
    }
  }
  return item;
}

/// Everything one committed path contributes to the report.
struct PathOutcome {
  PathRecord record;
  std::vector<std::vector<bool>> forks;
  PathStats stats;
  std::uint64_t solver_checks = 0;
  /// Per-path query-cache traffic (timing-dependent: depends on what
  /// other workers solved first).
  std::uint64_t qc_hits = 0;
  std::uint64_t qc_misses = 0;
  /// Checks answered by the cex/subsumption layers (model eval + core
  /// subsumption) and by the rewrite layer. Timing-dependent for the
  /// same reason as qc_hits: the shared store's contents depend on what
  /// other workers solved first (and an exact-cache hit preempts the
  /// later layers), hence the parity-stripped qc_ trace prefix.
  std::uint64_t qc_cex_hits = 0;
  std::uint64_t qc_rewrites = 0;
  /// Worker that executed (not committed) this path — the per-worker
  /// attribution key for cache traffic (qc_worker path_end field).
  unsigned worker = 0;
  /// Events buffered during (speculative) execution; the committer
  /// flushes them in commit order so the trace stays deterministic.
  std::vector<obs::TraceEvent> trace_events;
  /// Program-side time accumulators (ExecState::addTime), emitted as
  /// t_<key>_us path_end fields.
  std::vector<std::pair<std::string, std::uint64_t>> times;
};

struct Task {
  enum class Status { Pending, Claimed, Done };

  Task(std::uint64_t path_id, std::vector<bool> p)
      : id(path_id), prefix(std::move(p)) {}

  /// Stable trace id: assigned at push time in commit order, so it is
  /// identical across worker counts and already known when a worker
  /// claims the task speculatively.
  std::uint64_t id;
  std::vector<bool> prefix;
  Status status = Status::Pending;
  PathOutcome outcome;
  std::exception_ptr error;
};

using TaskRef = std::shared_ptr<Task>;

/// State shared between the committer and the workers. The worklist is
/// policy-ordered and only the committer removes from it; workers claim
/// entries in place (status Pending -> Claimed) and leave them for the
/// committer to pop.
struct Shared {
  std::mutex mu;
  std::condition_variable work_cv;  ///< workers: a new fork or stop
  std::condition_variable done_cv;  ///< committer: a task finished
  std::deque<TaskRef> worklist;
  bool stop = false;
};

/// One worker's private harness.
struct WorkerState {
  unsigned index = 0;
  std::unique_ptr<expr::ExprBuilder> builder;
  std::unique_ptr<solver::CanonicalHasher> hasher;
  PathProgram program;
  ExecState::Limits limits;
};

PathOutcome executePath(const PathProgram& program, expr::ExprBuilder& eb,
                        std::vector<bool> prefix,
                        const ExecState::Limits& limits,
                        const EngineOptions& options) {
  const obs::PhaseTimer path_phase(limits.profiler, "path");
  ExecState state(eb, std::move(prefix), limits);
  PathOutcome out;
  try {
    program(state);
    out.record.end = PathEnd::Completed;
  } catch (const PathTerminated& t) {
    out.record.end = t.end;
    out.record.message = t.message;
  }
  out.record.instructions = state.stats().instructions;
  out.record.decisions = state.decisions();
  out.record.solver_us = state.solverStats().solve_us;
  out.forks = state.pendingForks();
  out.stats = state.stats();
  out.solver_checks = state.solverStats().checks;
  out.qc_hits = state.solverStats().cache_hits;
  out.qc_misses = state.solverStats().cache_misses;
  out.qc_cex_hits =
      state.solverStats().cex_model_hits + state.solverStats().cex_core_hits;
  out.qc_rewrites = state.solverStats().rewrite_decided;
  out.trace_events = std::move(state.traceEvents());
  out.times = state.times();
  if (options.collect_test_vectors &&
      (out.record.end == PathEnd::Completed ||
       out.record.end == PathEnd::Error)) {
    if (std::optional<TestVector> tv = state.solveTestVector()) {
      out.record.test = std::move(*tv);
      out.record.has_test = true;
    }
  }
  // Tag merge on the worker: the tagger is a pure function of the
  // record, so speculative execution commits identical tags.
  finalizeRecordTags(out.record, state.tags(), options);
  return out;
}

/// Picks a speculation target: the Pending entry nearest the end the
/// committer pops from (DFS: back; BFS: front; Random: back — any entry
/// is equally likely to be popped, so recency is as good a bet as any).
/// Claimed entries cluster at the scanned end, so the scan is O(jobs).
TaskRef claimTarget(Shared& sh, EngineOptions::Searcher searcher) {
  const bool from_back = searcher != EngineOptions::Searcher::Bfs;
  const std::size_t n = sh.worklist.size();
  for (std::size_t k = 0; k < n; ++k) {
    TaskRef& t = sh.worklist[from_back ? n - 1 - k : k];
    if (t->status == Task::Status::Pending) {
      t->status = Task::Status::Claimed;
      return t;
    }
  }
  return nullptr;
}

/// Runs a claimed task on `ws` with the lock released, then publishes
/// the outcome (or the program's exception) under the lock.
void executeTask(Shared& sh, std::unique_lock<std::mutex>& lk, Task& task,
                 const WorkerState& ws, const EngineOptions& options) {
  lk.unlock();
  PathOutcome out;
  std::exception_ptr error;
  try {
    out = executePath(ws.program, *ws.builder, task.prefix, ws.limits,
                      options);
    out.worker = ws.index;
  } catch (...) {
    error = std::current_exception();
  }
  lk.lock();
  task.outcome = std::move(out);
  task.error = error;
  task.status = Task::Status::Done;
  sh.done_cv.notify_all();
}

void workerMain(Shared& sh, WorkerState& ws, const EngineOptions& options) {
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    if (sh.stop) return;
    TaskRef task = claimTarget(sh, options.searcher);
    if (!task) {
      sh.work_cv.wait(lk);
      continue;
    }
    executeTask(sh, lk, *task, ws, options);
  }
}

}  // namespace

const PathRecord* EngineReport::firstError() const {
  for (const PathRecord& p : paths)
    if (p.end == PathEnd::Error) return &p;
  return nullptr;
}

std::string reportToJson(const EngineReport& report) {
  obs::JsonWriter w;
  w.beginObject();
  // Deterministic counters (see the contract in engine.hpp).
  w.field("completed_paths", report.completed_paths);
  w.field("error_paths", report.error_paths);
  w.field("infeasible_paths", report.infeasible_paths);
  w.field("limited_paths", report.limited_paths);
  w.field("unexplored_forks", report.unexplored_forks);
  w.field("partial_paths", report.partialPaths());
  w.field("total_paths", report.totalPaths());
  w.field("instructions", report.instructions);
  w.field("test_vectors", report.test_vectors);
  w.field("branches", report.branches);
  w.field("const_decided", report.const_decided);
  w.field("knownbits_decided", report.knownbits_decided);
  w.field("solver_decided", report.solver_decided);
  w.field("solver_checks", report.solver_checks);
  w.field("stopped_early", report.stopped_early);
  // Timing-dependent fields, grouped so consumers diffing reports across
  // worker counts can drop them wholesale.
  w.key("timing").beginObject();
  w.field("seconds", report.seconds);
  w.field("qcache_hits", report.qcache_hits);
  w.field("qcache_misses", report.qcache_misses);
  w.endObject();
  w.endObject();
  return w.str();
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

EngineReport Engine::run(const PathProgram& program) {
  return run([&program](WorkerContext&) { return program; });
}

EngineReport Engine::run(const ProgramFactory& factory) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  EngineReport report;
  const unsigned jobs = options_.jobs == 0 ? 1 : options_.jobs;

  // A budgeted Unknown is not a semantic fact, so conflict-budgeted runs
  // forgo the cache (verdict reuse could turn an Unknown into Sat/Unsat
  // and desynchronize limited-path counts across schedules).
  std::unique_ptr<solver::QueryCache> owned_cache;
  solver::QueryCache* cache = nullptr;
  if (options_.solver_max_conflicts == 0) {
    if (options_.shared_cache) {
      // Campaign-owned cache: metrics attachment (if any) is the
      // owner's call.
      cache = options_.shared_cache;
    } else {
      owned_cache = std::make_unique<solver::QueryCache>();
      // The registry is the live aggregation point for cache traffic: the
      // cache bumps "qcache.hits"/"qcache.misses" as lookups happen, and
      // the same totals land in report.qcache_* after the run.
      if (options_.metrics) owned_cache->attachMetrics(*options_.metrics);
      cache = owned_cache.get();
    }
  }

  // The counterexample/subsumption store follows the same budget rule
  // (a budgeted Unknown is not a semantic fact, so the layers are off
  // entirely — ExecState skips them — and attaching a store would only
  // force canonical hashing).
  std::unique_ptr<solver::CexCache> owned_cex;
  solver::CexCache* cex = nullptr;
  if (options_.solver_max_conflicts == 0 && options_.solver_opt.cex_cache) {
    if (options_.shared_cex_cache) {
      cex = options_.shared_cex_cache;
    } else {
      owned_cex = std::make_unique<solver::CexCache>();
      if (options_.metrics) owned_cex->attachMetrics(*options_.metrics);
      cex = owned_cex.get();
    }
  }

  std::vector<WorkerState> workers(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    workers[i].index = i;
    workers[i].builder = std::make_unique<expr::ExprBuilder>();
    workers[i].hasher = std::make_unique<solver::CanonicalHasher>();
    WorkerContext ctx{i, *workers[i].builder};
    workers[i].program = factory(ctx);
    workers[i].limits =
        ExecState::Limits{options_.max_decisions_per_path,
                          options_.solver_max_conflicts,
                          options_.take_true_first,
                          options_.use_known_bits,
                          cache,
                          // The worker hasher memoizes canonical hashes
                          // across the worker's paths; worth attaching for
                          // the cex store even with the query cache off.
                          (cache || cex) ? workers[i].hasher.get() : nullptr,
                          options_.metrics,
                          options_.telemetry,
                          options_.profiler,
                          options_.trace != nullptr,
                          cex,
                          options_.solver_opt};
  }

  Shared sh;
  sh.worklist.push_back(std::make_shared<Task>(0, std::vector<bool>{}));
  std::uint64_t next_path_id = 1;
  std::uint32_t rng_state =
      options_.random_seed == 0 ? 1 : options_.random_seed;

  ProgressInstruments progress(options_.metrics, jobs);

  RVSYM_TRACE(options_.trace,
              obs::TraceEvent("run_start")
                  .str("searcher", searcherName(options_.searcher))
                  .num("jobs", static_cast<std::uint64_t>(jobs))
                  .num("trace_version",
                       static_cast<std::uint64_t>(obs::kTraceVersion)));

  std::vector<std::thread> threads;
  threads.reserve(jobs - 1);
  for (unsigned i = 1; i < jobs; ++i)
    threads.emplace_back([&sh, &workers, this, i] {
      workerMain(sh, workers[i], options_);
    });
  const auto shutdown = [&] {
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.stop = true;
    }
    sh.work_cv.notify_all();
    for (std::thread& t : threads) t.join();
    threads.clear();
  };

  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  double next_heartbeat = options_.heartbeat_seconds;

  try {
    std::unique_lock<std::mutex> lk(sh.mu);
    while (!sh.worklist.empty()) {
      // Budget checks, applied in commit order, so the report is exact
      // for any worker count.
      if (options_.max_paths != 0 &&
          report.totalPaths() - report.unexplored_forks >=
              options_.max_paths) {
        report.stopped_early = true;
        break;
      }
      if (options_.max_seconds != 0 && elapsed() >= options_.max_seconds) {
        report.stopped_early = true;
        break;
      }
      if (options_.max_instructions != 0 &&
          report.instructions >= options_.max_instructions) {
        report.stopped_early = true;
        break;
      }
      if (options_.heartbeat_seconds > 0 && elapsed() >= next_heartbeat) {
        std::string extra = options_.heartbeat_annotator
                                ? options_.heartbeat_annotator(report)
                                : std::string();
        if (cache) {
          // Live cross-path cache traffic (thread-safe sharded totals).
          const solver::QueryCache::Stats cs = cache->stats();
          char buf[64];
          std::snprintf(buf, sizeof buf, "qcache=%.0f%% (%llu/%llu)",
                        100.0 * cs.hitRate(),
                        static_cast<unsigned long long>(cs.hits),
                        static_cast<unsigned long long>(cs.hits + cs.misses));
          if (!extra.empty()) extra += ' ';
          extra += buf;
        }
        emitHeartbeat(report, elapsed(), sh.worklist.size(), extra,
                      options_.metrics);
        next_heartbeat = elapsed() + options_.heartbeat_seconds;
      }
      progress.depth(sh.worklist.size());

      TaskRef task = popNextItem(sh.worklist, options_.searcher, rng_state);
      RVSYM_TRACE(options_.trace,
                  obs::TraceEvent("schedule")
                      .num("path", task->id)
                      .num("depth", static_cast<std::uint64_t>(
                                        task->prefix.size())));
      if (task->status == Task::Status::Pending) {
        // No worker got to it — the committer doubles as worker 0.
        task->status = Task::Status::Claimed;
        executeTask(sh, lk, *task, workers[0], options_);
      } else if (task->status == Task::Status::Claimed) {
        sh.done_cv.wait(lk, [&] { return task->status == Task::Status::Done; });
      }
      if (task->error) std::rethrow_exception(task->error);

      // --- Commit ----------------------------------------------------------
      PathOutcome& out = task->outcome;

      // Flush events buffered during (possibly speculative) execution —
      // only here, on the committer, so the trace order is the commit
      // order for any worker count.
      if (options_.trace != nullptr) {
        for (obs::TraceEvent& ev : out.trace_events) {
          ev.fields.insert(ev.fields.begin(),
                           {"path", std::to_string(task->id)});
          options_.trace->emit(ev);
        }
      }

      const bool had_forks = !out.forks.empty();
      for (std::vector<bool>& alt : out.forks) {
        const std::uint64_t child_id = next_path_id++;
        RVSYM_TRACE(options_.trace,
                    obs::TraceEvent("fork")
                        .num("path", child_id)
                        .num("parent", task->id)
                        .num("depth", static_cast<std::uint64_t>(
                                          alt.size())));
        sh.worklist.push_back(std::make_shared<Task>(child_id, std::move(alt)));
      }
      if (had_forks) sh.work_cv.notify_all();

      report.instructions += out.stats.instructions;
      report.branches += out.stats.branches;
      report.const_decided += out.stats.const_decided;
      report.knownbits_decided += out.stats.knownbits_decided;
      report.solver_decided += out.stats.solver_decided;
      report.solver_checks += out.solver_checks;

      switch (out.record.end) {
        case PathEnd::Completed: ++report.completed_paths; break;
        case PathEnd::Error: ++report.error_paths; break;
        case PathEnd::Infeasible: ++report.infeasible_paths; break;
        case PathEnd::SolverLimit:
        case PathEnd::Budget: ++report.limited_paths; break;
      }
      if (out.record.has_test) ++report.test_vectors;

      // Committed paths only: a cache's own totals would also count
      // speculatively executed paths that were never committed and, for
      // a shared cache, other runs' traffic.
      report.qcache_hits += out.qc_hits;
      report.qcache_misses += out.qc_misses;
      RVSYM_TRACE(options_.trace,
                  makePathEndEvent(task->id, out.record, out.stats.forks,
                                   out.solver_checks, out.times)
                      // qc_* fields are timing-dependent (see trace.hpp).
                      .num("qc_hits", out.qc_hits)
                      .num("qc_misses", out.qc_misses)
                      .num("qc_cex_hits", out.qc_cex_hits)
                      .num("qc_rewrites", out.qc_rewrites)
                      .num("qc_worker",
                           static_cast<std::uint64_t>(out.worker)));
      progress.commit(out.record, out.worker);

      const bool is_error = out.record.end == PathEnd::Error;
      const bool store = is_error || options_.max_stored_paths == 0 ||
                         report.paths.size() < options_.max_stored_paths;
      if (store) report.paths.push_back(std::move(out.record));

      if (is_error && options_.stop_on_error) {
        report.stopped_early = true;
        break;
      }
    }
    report.unexplored_forks = sh.worklist.size();
  } catch (...) {
    shutdown();
    throw;
  }
  shutdown();

  report.seconds = elapsed();
  RVSYM_TRACE(options_.trace,
              obs::TraceEvent("run_end")
                  .num("paths", report.totalPaths())
                  .num("completed", report.completed_paths)
                  .num("errors", report.error_paths)
                  .num("unexplored", report.unexplored_forks)
                  .num("instr", report.instructions)
                  .num("t_s", report.seconds)
                  .num("qc_hits", report.qcache_hits)
                  .num("qc_misses", report.qcache_misses));
  if (options_.trace) options_.trace->flush();
  return report;
}

}  // namespace rvsym::symex
