#include "mut/campaign.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/coverage.hpp"
#include "mut/journal.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rvsym::mut {

const char* verdictName(Verdict v) {
  switch (v) {
    case Verdict::Killed: return "killed";
    case Verdict::Survived: return "survived";
    case Verdict::Equivalent: return "equivalent";
  }
  return "?";
}

namespace {

/// Drops a torn partial final line so a resumed campaign's appends
/// start on a fresh line — otherwise the first re-judged verdict would
/// glue onto the torn bytes and be unreadable to every later reader.
void truncateToLastNewline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  const std::size_t nl = text.find_last_of('\n');
  const std::size_t keep = nl == std::string::npos ? 0 : nl + 1;
  if (keep == text.size()) return;
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
}

/// One bounded hunt for this mutant at one instruction limit.
symex::EngineReport runHunt(const Mutant& mutant,
                            const CampaignOptions& options, unsigned limit,
                            solver::QueryCache* shared_cache,
                            const std::function<std::string()>& extra) {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = limit;
  cfg.num_symbolic_regs = options.num_symbolic_regs;
  cfg.instr_constraint = options.instr_constraint
                             ? options.instr_constraint
                             : core::CoSimulation::blockSystemInstructions();
  cfg.metrics = options.metrics;
  mutant.apply(cfg);

  symex::EngineOptions opts;
  opts.stop_on_error = true;  // a kill is the first voter mismatch
  opts.max_paths = options.max_paths_per_hunt;
  opts.max_seconds = options.max_seconds_per_hunt;
  opts.jobs = options.engine_jobs;
  opts.shared_cache = shared_cache;
  opts.solver_opt = options.solver_opt;
  opts.shared_cex_cache = options.shared_cex_cache;
  opts.metrics = options.metrics;
  opts.telemetry = options.telemetry;
  opts.profiler = options.profiler;
  opts.heartbeat_seconds = options.heartbeat_seconds;
  if (options.heartbeat_seconds > 0) {
    // The usual coverage extra plus the campaign progress counters —
    // the "mutants judged/killed/remaining" contract of --heartbeat.
    auto cov = core::coverageHeartbeat();
    opts.heartbeat_annotator =
        [cov, extra](const symex::EngineReport& report) {
          std::string s = cov(report);
          if (extra) {
            const std::string e = extra();
            if (!e.empty()) {
              s += ' ';
              s += e;
            }
          }
          return s;
        };
  }

  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" +
                             fileSafeId(mutant.id()) + "_limit" +
                             std::to_string(limit) + ".jsonl";
    trace = std::make_unique<obs::JsonlTraceSink>(path);
    if (trace->ok()) opts.trace = trace.get();
    else std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
  }

  symex::Engine engine(opts);
  return engine.run(core::cosimFactory(std::move(cfg)));
}

}  // namespace

MutantResult judgeMutant(const Mutant& mutant, const CampaignOptions& options,
                         solver::QueryCache* shared_cache,
                         const std::function<std::string()>& heartbeat_extra) {
  MutantResult r;
  r.mutant = mutant;

  if (options.check_decode_equivalence &&
      mutant.kind == MutantKind::DecodeBit && decodeBitIsEquivalent(mutant)) {
    r.verdict = Verdict::Equivalent;
    return r;
  }

  const unsigned first =
      options.min_instr_limit == 0 ? 1 : options.min_instr_limit;
  for (unsigned limit = first; limit <= options.max_instr_limit; ++limit) {
    const symex::EngineReport report =
        runHunt(mutant, options, limit, shared_cache, heartbeat_extra);
    r.instructions += report.instructions;
    r.paths += report.completed_paths;
    r.partial_paths += report.partialPaths();
    r.solver_checks += report.solver_checks;
    r.seconds += report.seconds;
    r.qcache_hits += report.qcache_hits;
    r.qcache_misses += report.qcache_misses;
    for (const symex::PathRecord& p : report.paths) r.solver_us += p.solver_us;
    if (const symex::PathRecord* err = report.firstError()) {
      r.verdict = Verdict::Killed;
      r.kill_instr_limit = limit;
      r.kill_message = err->message;
      if (err->has_test) {
        r.kill_test = err->test;
        r.has_kill_test = true;
      }
      return r;
    }
  }
  r.verdict = Verdict::Survived;
  return r;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

CampaignReport CampaignRunner::run(const std::vector<Mutant>& mutants) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  CampaignReport report;

  // Resume: skip mutants the existing journal already judged. A torn
  // final line (the verdict a killed campaign was writing) is reported
  // and re-judged, never silently dropped.
  std::unordered_set<std::string> judged;
  if (options_.resume && !options_.journal_path.empty()) {
    obs::analyze::JsonlStats scan;
    for (std::string& id : judgedMutantIds(options_.journal_path, &scan))
      judged.insert(std::move(id));
    const std::string warn = scan.describe(options_.journal_path);
    if (!warn.empty())
      std::fprintf(stderr, "resume: %s%s\n", warn.c_str(),
                   scan.torn_tail ? "; that mutant will be re-judged" : "");
    // Repair the tail before appending: drop torn bytes, or finish a
    // parsable-but-unterminated record with its newline, so resumed
    // verdicts never glue onto the previous campaign's last write.
    if (scan.torn_tail) {
      truncateToLastNewline(options_.journal_path);
    } else if (scan.truncated_tail) {
      if (std::FILE* f = std::fopen(options_.journal_path.c_str(), "a")) {
        std::fputs("\n", f);
        std::fclose(f);
      }
    }
  }

  std::vector<const Mutant*> todo;
  todo.reserve(mutants.size());
  for (const Mutant& m : mutants) {
    if (judged.count(m.id())) {
      ++report.skipped;
      continue;
    }
    todo.push_back(&m);
  }

  std::FILE* journal = nullptr;
  if (!options_.journal_path.empty()) {
    const bool append = options_.resume && !judged.empty();
    journal = std::fopen(options_.journal_path.c_str(), append ? "a" : "w");
    if (!journal) {
      std::fprintf(stderr, "cannot open journal %s for writing\n",
                   options_.journal_path.c_str());
    } else if (!append) {
      std::fprintf(journal, "%s\n",
                   journalHeader(options_, mutants.size()).c_str());
      std::fflush(journal);
    }
  }

  std::unique_ptr<solver::QueryCache> cache;
  if (options_.use_query_cache) {
    cache = std::make_unique<solver::QueryCache>(16);
    if (options_.metrics) cache->attachMetrics(*options_.metrics);
  }

  // Campaign-wide counterexample/subsumption store: mutants replay
  // near-identical decode cascades, so models and UNSAT cores transfer
  // across hunts exactly like query-cache verdicts do.
  std::unique_ptr<solver::CexCache> cex;
  CampaignOptions run_options = options_;
  if (options_.solver_opt.cex_cache) {
    cex = std::make_unique<solver::CexCache>(16);
    if (options_.metrics) cex->attachMetrics(*options_.metrics);
    run_options.shared_cex_cache = cex.get();
  }

  // Campaign progress shared with the per-hunt heartbeat annotators.
  std::atomic<std::uint64_t> judged_count{0}, killed_count{0};
  const std::size_t total = todo.size();

  // Live campaign progress in the registry (commit-order updates, so the
  // final values are deterministic): the timeseries sampler and any
  // other registry reader see judged/killed/... move as mutants commit.
  obs::Gauge* g_total = nullptr;
  obs::Counter* c_judged = nullptr;
  obs::Counter* c_killed = nullptr;
  obs::Counter* c_survived = nullptr;
  obs::Counter* c_equivalent = nullptr;
  if (options_.metrics) {
    g_total = &options_.metrics->gauge("campaign.total");
    g_total->set(static_cast<std::int64_t>(total));
    g_total->sampleMax(static_cast<std::int64_t>(total));
    c_judged = &options_.metrics->counter("campaign.judged");
    c_killed = &options_.metrics->counter("campaign.killed");
    c_survived = &options_.metrics->counter("campaign.survived");
    c_equivalent = &options_.metrics->counter("campaign.equivalent");
  }
  const auto heartbeat_extra = [&]() {
    char buf[96];
    const std::uint64_t j = judged_count.load(std::memory_order_relaxed);
    const std::uint64_t k = killed_count.load(std::memory_order_relaxed);
    std::snprintf(buf, sizeof buf,
                  "mutants=%llu/%zu killed=%llu remaining=%zu",
                  static_cast<unsigned long long>(j), total,
                  static_cast<unsigned long long>(k),
                  total - static_cast<std::size_t>(j));
    return std::string(buf);
  };

  // Judge concurrently, commit in enumeration order: workers claim
  // indices through an atomic cursor and park finished results; the
  // committer (this thread) flushes them in index order, so the journal
  // and callbacks are byte-identical for any worker count.
  struct Slot {
    MutantResult result;
    bool done = false;
  };
  std::vector<Slot> slots(todo.size());
  std::mutex mu;
  std::condition_variable done_cv;
  std::atomic<std::size_t> next{0};

  const auto judgeOne = [&](std::size_t i) {
    return judgeMutant(*todo[i], run_options, cache.get(), heartbeat_extra);
  };

  const auto workerLoop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= todo.size()) return;
      MutantResult r = judgeOne(i);
      {
        std::lock_guard<std::mutex> lk(mu);
        slots[i].result = std::move(r);
        slots[i].done = true;
      }
      done_cv.notify_all();
    }
  };

  const unsigned jobs = options_.jobs == 0 ? 1 : options_.jobs;
  std::vector<std::thread> threads;
  if (jobs > 1) {
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) threads.emplace_back(workerLoop);
  }

  double next_heartbeat = options_.heartbeat_seconds;
  const auto commit = [&](MutantResult& r) {
    judged_count.fetch_add(1, std::memory_order_relaxed);
    if (c_judged) c_judged->add();
    switch (r.verdict) {
      case Verdict::Killed:
        ++report.killed;
        killed_count.fetch_add(1, std::memory_order_relaxed);
        if (c_killed) c_killed->add();
        break;
      case Verdict::Survived:
        ++report.survived;
        if (c_survived) c_survived->add();
        break;
      case Verdict::Equivalent:
        ++report.equivalent;
        if (c_equivalent) c_equivalent->add();
        break;
    }
    report.qcache_hits += r.qcache_hits;
    report.qcache_misses += r.qcache_misses;
    if (journal) {
      std::fprintf(journal, "%s\n", journalLine(r).c_str());
      std::fflush(journal);  // an interrupted campaign keeps its prefix
    }
    if (!options_.survivor_dir.empty() && r.verdict == Verdict::Survived)
      writeSurvivorManifest(options_.survivor_dir, r, options_);
    if (options_.on_result) options_.on_result(r);
    if (options_.heartbeat_seconds > 0 && elapsed() >= next_heartbeat) {
      obs::HeartbeatSnapshot s;
      s.elapsed_s = elapsed();
      s.has_campaign = true;
      s.mutants_total = total;
      s.mutants_judged = judged_count.load(std::memory_order_relaxed);
      s.mutants_killed = report.killed;
      s.mutants_survived = report.survived;
      s.mutants_equivalent = report.equivalent;
      if (options_.metrics) s.readRegistry(*options_.metrics);
      obs::emitHeartbeatLine(s, "campaign");
      next_heartbeat = elapsed() + options_.heartbeat_seconds;
    }
    report.results.push_back(std::move(r));
  };

  if (jobs <= 1) {
    // Sequential: judge and commit inline on this thread.
    for (std::size_t i = 0; i < todo.size(); ++i) {
      MutantResult r = judgeOne(i);
      commit(r);
    }
  } else {
    std::unique_lock<std::mutex> lk(mu);
    for (std::size_t i = 0; i < todo.size(); ++i) {
      done_cv.wait(lk, [&] { return slots[i].done; });
      MutantResult r = std::move(slots[i].result);
      lk.unlock();
      commit(r);
      lk.lock();
    }
  }
  for (std::thread& t : threads) t.join();

  if (journal) std::fclose(journal);
  report.seconds = elapsed();
  return report;
}

}  // namespace rvsym::mut
