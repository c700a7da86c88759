#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "obs/bundle.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/exposition.hpp"
#include "obs/fleet/history.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_events.hpp"
#include "serve/job.hpp"
#include "serve/jobstore.hpp"
#include "serve/worker.hpp"
#include "solver/cachestore.hpp"
#include "solver/options.hpp"

namespace rvsym::serve {

namespace fleet = obs::fleet;

namespace {

using obs::JsonWriter;
using obs::analyze::JsonValue;
using obs::analyze::parseJson;

std::string okReply(const std::function<void(JsonWriter&)>& fill = {}) {
  JsonWriter w;
  w.beginObject();
  w.field("ok", true);
  if (fill) fill(w);
  w.endObject();
  return w.str();
}

std::string errorReply(const std::string& message) {
  JsonWriter w;
  w.beginObject();
  w.field("ok", false);
  w.field("error", message);
  w.endObject();
  return w.str();
}

}  // namespace

struct Daemon::Impl {
  explicit Impl(DaemonOptions opts)
      : options(std::move(opts)), store(options.state_dir),
        sched(options.sched) {}

  DaemonOptions options;
  JobStore store;
  Scheduler sched;
  int listen_fd = -1;
  bool draining = false;
  std::uint64_t status_seq = 0;
  std::chrono::steady_clock::time_point start_time;
  std::chrono::steady_clock::time_point last_activity;
  bool compacted_since_idle = false;
  unsigned worker_seq = 0;

  // ---- fleet observability (DESIGN.md §13) ------------------------------

  obs::MetricsRegistry self;   ///< the daemon's own instruments
  fleet::FleetAggregator agg;  ///< worker id -> latest shipped snapshot
  std::unique_ptr<fleet::RunHistory> history;
  std::string env_json = fleet::runEnvJson();
  /// Daemon-side spans (job lifecycle); drained into traces["daemon"].
  obs::SpanCollector self_spans;
  /// One pending chrome-trace file per process (daemon + workers):
  /// events pre-rendered with pid 1, re-pidded by the merge tool.
  struct ProcTrace {
    std::uint64_t epoch_us = 0;
    std::set<std::uint32_t> tids;
    std::vector<std::string> events;  ///< rendered trace-event objects
  };
  std::map<std::string, ProcTrace> traces;
  int metrics_fd = -1;  ///< --metrics-listen socket (-1 = off)
  /// Scrape connections: tiny HTTP/1.0 exchanges served inline.
  std::map<int, std::string> scrapes;  ///< fd -> buffered request bytes

  struct Client {
    int fd = -1;
    FrameDecoder dec;
  };

  struct Worker {
    int fd = -1;
    FrameDecoder dec;
    std::string id;
    pid_t pid = -1;       // process mode
    std::thread thread;   // thread mode
    bool ready = false;   ///< hello received
    bool idle = false;
  };

  struct JobRec {
    JobSpec spec;
    std::uint64_t units_total = 0;
    std::map<std::string, std::string> unit_records;  ///< unit -> raw line
    bool finished = false;
    std::string status;        ///< done / failed / cancelled
    std::string final_record;  ///< raw final line
    /// Submit (or resume) instant — the daemon-side job span's start.
    std::chrono::steady_clock::time_point started;
  };

  std::map<int, Client> clients;
  std::map<int, std::unique_ptr<Worker>> workers;
  std::map<std::string, JobRec> jobs;
  std::vector<std::pair<int, std::string>> watchers;  ///< client fd -> job

  // ---- lifecycle --------------------------------------------------------

  bool init(std::string* error) {
    std::signal(SIGPIPE, SIG_IGN);  // dead peers are poll events, not death
    start_time = last_activity = std::chrono::steady_clock::now();
    listen_fd = listenOn(options.endpoint, error);
    if (listen_fd < 0) return false;
    if (options.metrics_listen) {
      metrics_fd = listenOn(*options.metrics_listen, error);
      if (metrics_fd < 0) return false;
    }
    if (options.history) {
      history = std::make_unique<fleet::RunHistory>(options.state_dir +
                                                    "/runs.rvhx");
      // Load once at startup purely for the tail repair: an append
      // after a kill -9 must start on a fresh line.
      std::vector<std::string> repair;
      history->loadAll(&repair);
      for (const std::string& msg : repair)
        std::fprintf(stderr, "rvsym-serve: %s\n", msg.c_str());
    }
    if (!options.trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.trace_dir, ec);
      if (ec) {
        if (error) *error = "cannot create " + options.trace_dir;
        return false;
      }
      flushDaemonTrace();  // daemon.trace.json exists from the start
    }

    // Resume: every unfinished journal is re-admitted with its judged
    // units skipped. Unit verdicts are deterministic, so the resumed
    // job converges to the verdict set of an uninterrupted run.
    std::vector<std::string> warnings;
    for (LoadedJob& loaded : store.loadAll(&warnings)) {
      JobRec rec;
      rec.started = start_time;
      rec.spec = loaded.spec;
      rec.unit_records = std::move(loaded.unit_records);
      rec.finished = loaded.finished;
      rec.final_record = loaded.final_record;
      rec.units_total = rec.unit_records.size();
      if (rec.finished) {
        if (const auto v = parseJson(rec.final_record))
          rec.status = v->getString("status").value_or("done");
        jobs.emplace(loaded.id, std::move(rec));
        continue;
      }
      std::string err;
      const auto units = enumerateUnits(rec.spec, &err);
      if (!units) {
        jobs.emplace(loaded.id, std::move(rec));
        finalizeJob(loaded.id, "failed",
                    "cannot re-enumerate units: " + err);
        continue;
      }
      std::vector<std::string> remaining;
      for (const std::string& u : *units)
        if (!rec.unit_records.count(u)) remaining.push_back(u);
      rec.units_total = units->size();
      const std::uint64_t done = units->size() - remaining.size();
      jobs.emplace(loaded.id, std::move(rec));
      sched.submit(loaded.id, jobs[loaded.id].spec.max_shards,
                   std::move(remaining), done);
      logf("resumed %s: %llu/%llu units already judged", loaded.id.c_str(),
           static_cast<unsigned long long>(done),
           static_cast<unsigned long long>(units->size()));
      maybeFinalize(loaded.id);
    }
    for (const std::string& wmsg : warnings)
      std::fprintf(stderr, "rvsym-serve: %s\n", wmsg.c_str());

    for (unsigned i = 0; i < std::max(1u, options.workers); ++i)
      if (!spawnWorker(error)) return false;
    return true;
  }

  void logf(const char* fmt, ...) {
    if (!options.verbose) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "rvsym-serve: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  // ---- workers ----------------------------------------------------------

  bool spawnWorker(std::string* error) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      if (error) *error = "socketpair failed";
      return false;
    }
    auto w = std::make_unique<Worker>();
    w->id = "w" + std::to_string(worker_seq++);
    w->fd = sv[0];

    WorkerConfig cfg;
    cfg.cache_dir = options.cache_dir;
    cfg.tag = w->id;
    cfg.engine_jobs = options.engine_jobs;
    // The fail-after hook arms only the first worker ever spawned, so a
    // respawn after the simulated crash judges normally instead of
    // crash-looping.
    if (options.thread_workers && w->id == "w0")
      cfg.fail_after_units = options.worker_fail_after_units;

    if (options.thread_workers) {
      const int worker_fd = sv[1];
      w->thread = std::thread([worker_fd, cfg] {
        workerMain(worker_fd, cfg);
        ::close(worker_fd);
      });
    } else {
      const pid_t pid = ::fork();
      if (pid < 0) {
        if (error) *error = "fork failed";
        ::close(sv[0]);
        ::close(sv[1]);
        return false;
      }
      if (pid == 0) {
        // Child: drop every daemon fd except the worker socket.
        ::close(sv[0]);
        ::close(listen_fd);
        for (const auto& [cfd, c] : clients) ::close(cfd);
        for (const auto& [wfd, other] : workers) ::close(wfd);
        const int code = workerMain(sv[1], cfg);
        std::_Exit(code);
      }
      w->pid = pid;
      ::close(sv[1]);
    }
    logf("spawned worker %s", w->id.c_str());
    self.counter("serve.workers_spawned").add(1);
    workers.emplace(sv[0], std::move(w));
    return true;
  }

  void removeWorker(int fd, bool respawn) {
    const auto it = workers.find(fd);
    if (it == workers.end()) return;
    std::unique_ptr<Worker> w = std::move(it->second);
    workers.erase(it);
    ::close(fd);
    if (respawn) self.counter("serve.worker_deaths").add(1);
    for (const std::string& job_id : sched.onWorkerGone(w->id)) {
      logf("worker %s died holding a shard of %s", w->id.c_str(),
           job_id.c_str());
      finalizeJob(job_id, "failed",
                  "worker " + w->id + " died while judging");
    }
    if (w->pid > 0) {
      int st = 0;
      ::waitpid(w->pid, &st, 0);
    }
    if (w->thread.joinable()) w->thread.join();
    if (respawn && !draining) {
      std::string err;
      if (!spawnWorker(&err))
        std::fprintf(stderr, "rvsym-serve: respawn failed: %s\n",
                     err.c_str());
    }
    dispatch();
  }

  void dispatch() {
    for (auto& [fd, w] : workers) {
      if (!w->ready || !w->idle) continue;
      const auto shard = sched.nextShard(w->id);
      if (!shard) continue;
      const JobRec& rec = jobs[shard->job_id];
      JsonWriter msg;
      msg.beginObject();
      msg.field("cmd", "shard");
      msg.field("job", shard->job_id);
      msg.field("shard", std::uint64_t{shard->index});
      msg.key("spec").rawValue(rec.spec.toJson());
      msg.key("units").beginArray();
      for (const std::string& u : shard->units) msg.value(u);
      msg.endArray();
      msg.endObject();
      if (!writeFrame(fd, msg.str())) continue;  // poll will reap it
      w->idle = false;
      touch();
    }
  }

  void onWorkerFrame(Worker& w, const std::string& payload) {
    const auto v = parseJson(payload);
    if (!v) return;
    const std::string ev = v->getString("ev").value_or("");
    if (ev == "hello") {
      w.ready = true;
      w.idle = true;
      dispatch();
      return;
    }
    if (ev == "unit") {
      const std::string job_id = v->getString("job").value_or("");
      const std::string unit = v->getString("unit").value_or("");
      const auto job = jobs.find(job_id);
      if (job == jobs.end() || unit.empty()) return;
      // Journal first, memory second: after a kill -9 the journal is
      // the truth the restart resumes from.
      store.appendLine(job_id, payload);
      job->second.unit_records.emplace(unit, payload);
      self.counter("serve.units_recorded").add(1);
      sched.onUnitDone(job_id);
      notifyWatchers(job_id, payload);
      touch();
      return;
    }
    if (ev == "metrics_report") {
      if (const JsonValue* reg = v->find("registry"))
        if (auto snap = fleet::RegistrySnapshot::fromJson(*reg))
          agg.update(w.id, std::move(*snap));
      return;
    }
    if (ev == "spans_report") {
      if (!options.trace_dir.empty()) absorbSpansReport(w.id, *v);
      return;
    }
    if (ev == "shard_done") {
      const std::string job_id = v->getString("job").value_or("");
      const auto index =
          static_cast<std::uint32_t>(v->getU64("shard").value_or(0));
      w.idle = true;
      sched.onShardDone(w.id, job_id, index);
      maybeFinalize(job_id);
      dispatch();
      touch();
      return;
    }
  }

  // ---- fleet traces -----------------------------------------------------

  /// Buffers one spans_report batch and rewrites the worker's trace
  /// file (files are per-process small; a full rewrite keeps them valid
  /// JSON at every instant for a mid-campaign merge).
  void absorbSpansReport(const std::string& worker_id, const JsonValue& v) {
    ProcTrace& t = traces[worker_id];
    t.epoch_us = v.getU64("epoch_us").value_or(t.epoch_us);
    const JsonValue* spans = v.find("spans");
    if (!spans || !spans->isArray()) return;
    for (const JsonValue& s : spans->items()) {
      if (!s.isObject()) continue;
      const auto tid = s.getU64("tid").value_or(0);
      t.tids.insert(static_cast<std::uint32_t>(tid));
      JsonWriter e;
      e.beginObject();
      e.field("name", s.getString("name").value_or(""));
      e.field("cat", s.getString("cat").value_or("phase"));
      e.field("ph", "X");
      e.field("ts", s.getU64("ts_us").value_or(0));
      e.field("dur", s.getU64("dur_us").value_or(0));
      e.field("pid", std::uint64_t{1});
      e.field("tid", tid);
      if (const JsonValue* args = s.find("args")) {
        e.key("args");
        obs::analyze::writeJson(e, *args);
      }
      e.endObject();
      t.events.push_back(e.str());
    }
    writeProcTrace(worker_id);
  }

  /// Moves the daemon's own spans into traces["daemon"] and rewrites
  /// daemon.trace.json.
  void flushDaemonTrace() {
    ProcTrace& t = traces["daemon"];
    t.epoch_us = self_spans.epochSteadyUs();
    for (const obs::Span& s : self_spans.drain()) {
      t.tids.insert(s.tid);
      JsonWriter e;
      e.beginObject();
      e.field("name", s.name);
      e.field("cat", s.cat);
      e.field("ph", "X");
      e.field("ts", s.ts_us);
      e.field("dur", s.dur_us);
      e.field("pid", std::uint64_t{1});
      e.field("tid", static_cast<std::uint64_t>(s.tid));
      if (!s.args.empty()) {
        e.key("args").beginObject();
        for (const auto& [k, val] : s.args) e.key(k).rawValue(val);
        e.endObject();
      }
      e.endObject();
      t.events.push_back(e.str());
    }
    writeProcTrace("daemon");
  }

  void writeProcTrace(const std::string& id) {
    const ProcTrace& t = traces[id];
    const std::string pname =
        id == "daemon" ? std::string("rvsym-serve daemon") : "worker " + id;
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const std::uint32_t tid : t.tids) {
      w.beginObject();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", std::uint64_t{1});
      w.field("tid", static_cast<std::uint64_t>(tid));
      w.key("args").beginObject();
      w.field("name", pname + " t" + std::to_string(tid));
      w.endObject();
      w.endObject();
    }
    for (const std::string& e : t.events) w.rawValue(e);
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.field("producer", "rvsym-serve");
    w.field("process_name", pname);
    w.field("epoch_us", t.epoch_us);
    w.endObject();
    w.endObject();
    const std::string path =
        options.trace_dir + "/" +
        (id == "daemon" ? "daemon.trace.json" : "worker-" + id + ".trace.json");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) out << w.str() << "\n";
  }

  // ---- jobs -------------------------------------------------------------

  void maybeFinalize(const std::string& job_id) {
    const auto prog = sched.progress(job_id);
    if (!prog || prog->shards_in_flight > 0) return;
    const auto job = jobs.find(job_id);
    if (job == jobs.end() || job->second.finished) return;
    switch (prog->state) {
      case JobState::Done:
        finalizeJob(job_id, "done", "");
        break;
      case JobState::Cancelled:
        finalizeJob(job_id, "cancelled", "");
        break;
      case JobState::Failed:  // finalized at the failure site
      case JobState::Queued:
      case JobState::Running:
        break;
    }
  }

  void finalizeJob(const std::string& job_id, const std::string& status,
                   const std::string& note) {
    JobRec& rec = jobs[job_id];
    if (rec.finished) return;

    // Aggregate the unit records (recomputed identically after a
    // restart, since the inputs are the journal lines themselves).
    std::map<std::string, std::uint64_t> verdicts;
    std::uint64_t errors = 0, solver_checks = 0, instructions = 0;
    std::uint64_t qc_sat_solves = 0, qc_hits = 0, qc_misses = 0;
    double wall_s = 0;
    for (const auto& [unit, line] : rec.unit_records) {
      const auto v = parseJson(line);
      if (!v) continue;
      if (const auto verdict = v->getString("verdict"))
        ++verdicts[*verdict];
      else
        ++errors;
      solver_checks += v->getU64("solver_checks").value_or(0);
      instructions += v->getU64("instructions").value_or(0);
      qc_sat_solves += v->getU64("qc_sat_solves").value_or(0);
      qc_hits += v->getU64("qc_hits").value_or(0);
      qc_misses += v->getU64("qc_misses").value_or(0);
      wall_s += v->getNumber("t_seconds").value_or(0);
    }

    JsonWriter w;
    w.beginObject();
    w.field("ev", "final");
    w.field("status", status);
    if (!note.empty()) w.field("note", note);
    w.field("units_total", rec.units_total);
    w.field("units_done", std::uint64_t{rec.unit_records.size()});
    w.key("verdicts").beginObject();
    for (const auto& [name, count] : verdicts) w.field(name, count);
    w.endObject();
    if (errors != 0) w.field("unit_errors", errors);
    w.field("solver_checks", solver_checks);
    w.field("instructions", instructions);
    w.field("qc_sat_solves", qc_sat_solves);
    w.field("qc_hits", qc_hits);
    w.field("qc_misses", qc_misses);
    w.endObject();

    rec.finished = true;
    rec.status = status;
    rec.final_record = w.str();
    store.appendLine(job_id, rec.final_record);
    self.counter("serve.jobs_" + status).add(1);
    if (history) {
      fleet::RunRecord run;
      run.job = job_id;
      run.kind = rec.spec.kind;
      run.scenario = rec.spec.scenario;
      run.solver_opt = rec.spec.solver_opt;
      run.status = status;
      run.units_total = rec.units_total;
      run.units_done = rec.unit_records.size();
      run.unit_errors = errors;
      run.verdicts = verdicts;
      run.solver_checks = solver_checks;
      run.instructions = instructions;
      run.qc_sat_solves = qc_sat_solves;
      run.qc_hits = qc_hits;
      run.qc_misses = qc_misses;
      run.wall_s = wall_s;
      run.env_json = env_json;
      if (!history->append(run))
        std::fprintf(stderr, "rvsym-serve: cannot append %s\n",
                     history->path().c_str());
    }
    if (!options.trace_dir.empty()) {
      obs::Span s;
      s.name = "job " + job_id;
      s.cat = "phase";
      s.tid = self_spans.threadTrack();
      s.ts_us = self_spans.sinceEpochUs(rec.started);
      s.dur_us = self_spans.nowUs() - s.ts_us;
      s.args = {{"kind", "\"" + obs::jsonEscape(rec.spec.kind) + "\""},
                {"status", "\"" + obs::jsonEscape(status) + "\""},
                {"units", std::to_string(rec.unit_records.size())}};
      self_spans.add(std::move(s));
      flushDaemonTrace();
    }
    logf("%s %s (%zu units)", job_id.c_str(), status.c_str(),
         rec.unit_records.size());
    notifyWatchers(job_id, rec.final_record);
    // A finished job needs no watchers.
    watchers.erase(std::remove_if(watchers.begin(), watchers.end(),
                                  [&](const auto& p) {
                                    return p.second == job_id;
                                  }),
                   watchers.end());
  }

  void notifyWatchers(const std::string& job_id,
                      const std::string& payload) {
    for (const auto& [fd, watched] : watchers)
      if (watched == job_id) writeFrame(fd, payload);
  }

  // ---- clients ----------------------------------------------------------

  void onClientFrame(Client& c, const std::string& payload) {
    const auto v = parseJson(payload);
    if (!v) {
      writeFrame(c.fd, errorReply("unparsable request"));
      return;
    }
    const std::string cmd = v->getString("cmd").value_or("");
    if (cmd == "ping") {
      writeFrame(c.fd, okReply([&](JsonWriter& w) {
        w.field("ev", "pong");
        w.field("workers", std::uint64_t{workers.size()});
        w.field("jobs", std::uint64_t{jobs.size()});
        w.field("draining", draining);
      }));
      return;
    }
    if (cmd == "metrics") {
      writeFrame(c.fd, okReply([&](JsonWriter& w) {
        w.field("exposition", renderMetricsText());
      }));
      return;
    }
    if (cmd == "workers") {
      writeFrame(c.fd, okReply([&](JsonWriter& w) {
        std::set<std::string> live;
        for (const auto& [fd, worker] : workers) live.insert(worker->id);
        w.key("workers").beginArray();
        std::set<std::string> reported;
        for (const auto& [id, snap] : agg.sources()) {
          if (id == "daemon") continue;
          reported.insert(id);
          w.beginObject();
          w.field("id", id);
          w.field("connected", live.count(id) != 0);
          const auto counter = [&](const char* name) -> std::uint64_t {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0 : it->second;
          };
          w.field("units", counter("serve.units"));
          w.field("solver_queries", counter("solver.queries"));
          w.field("qc_hits", counter("qcache.hits"));
          w.field("qc_misses", counter("qcache.misses"));
          const auto hit = snap.histograms.find("solver.check_us");
          if (hit != snap.histograms.end()) {
            const auto h = fleet::toHistogram(hit->second);
            w.field("sat_solves", h->count());
            w.field("check_p50_us", h->quantileMicros(0.5));
            w.field("check_p90_us", h->quantileMicros(0.9));
          } else {
            w.field("sat_solves", std::uint64_t{0});
          }
          w.endObject();
        }
        // Live workers that have not shipped a snapshot yet still show.
        for (const std::string& id : live) {
          if (reported.count(id)) continue;
          w.beginObject();
          w.field("id", id);
          w.field("connected", true);
          w.endObject();
        }
        w.endArray();
      }));
      return;
    }
    if (cmd == "submit") {
      handleSubmit(c, *v);
      return;
    }
    if (cmd == "status") {
      handleStatus(c, *v);
      return;
    }
    if (cmd == "status_record") {
      writeFrame(c.fd, statusRecord());
      return;
    }
    if (cmd == "cancel") {
      const std::string job_id = v->getString("job").value_or("");
      const auto job = jobs.find(job_id);
      if (job == jobs.end()) {
        writeFrame(c.fd, errorReply("unknown job " + job_id));
        return;
      }
      if (job->second.finished) {
        writeFrame(c.fd,
                   errorReply("job " + job_id + " already " +
                              job->second.status));
        return;
      }
      sched.cancel(job_id);
      writeFrame(c.fd, okReply([&](JsonWriter& w) {
        w.field("job", job_id);
        w.field("state", "cancelled");
      }));
      maybeFinalize(job_id);  // no shards in flight -> final now
      return;
    }
    if (cmd == "drain") {
      draining = true;
      writeFrame(c.fd, okReply([&](JsonWriter& w) {
        w.field("draining", true);
        w.field("active_jobs", std::uint64_t{sched.activeJobs()});
      }));
      return;
    }
    if (cmd == "watch") {
      const std::string job_id = v->getString("job").value_or("");
      const auto job = jobs.find(job_id);
      if (job == jobs.end()) {
        writeFrame(c.fd, errorReply("unknown job " + job_id));
        return;
      }
      if (job->second.finished)
        writeFrame(c.fd, job->second.final_record);
      else
        watchers.emplace_back(c.fd, job_id);
      return;
    }
    writeFrame(c.fd, errorReply("unknown command '" + cmd + "'"));
  }

  void handleSubmit(Client& c, const JsonValue& v) {
    if (draining) {
      writeFrame(c.fd, errorReply("daemon is draining"));
      return;
    }
    const JsonValue* spec_v = v.find("spec");
    if (!spec_v) {
      writeFrame(c.fd, errorReply("submit carries no spec"));
      return;
    }
    std::string err;
    const auto spec = JobSpec::fromJson(*spec_v, &err);
    if (!spec) {
      writeFrame(c.fd, errorReply(err));
      return;
    }
    if (!obs::scenarioConstraint(spec->scenario)) {
      writeFrame(c.fd, errorReply("unknown scenario '" + spec->scenario +
                                  "'"));
      return;
    }
    solver::SolverOptions so;
    if (!solver::parseSolverOpt(spec->solver_opt, &so, &err)) {
      writeFrame(c.fd, errorReply(err));
      return;
    }
    const auto units = enumerateUnits(*spec, &err);
    if (!units) {
      writeFrame(c.fd, errorReply(err));
      return;
    }
    const std::string job_id = store.nextJobId();
    std::string why;
    if (!sched.submit(job_id, spec->max_shards, *units, 0, &why)) {
      writeFrame(c.fd, errorReply(why));
      return;
    }
    if (!store.createJob(job_id, *spec, &err)) {
      sched.cancel(job_id);
      writeFrame(c.fd, errorReply(err));
      return;
    }
    JobRec rec;
    rec.spec = *spec;
    rec.units_total = units->size();
    rec.started = std::chrono::steady_clock::now();
    jobs.emplace(job_id, std::move(rec));
    self.counter("serve.jobs_submitted").add(1);
    logf("submitted %s: %s, %zu units", job_id.c_str(),
         spec->kind.c_str(), units->size());
    writeFrame(c.fd, okReply([&](JsonWriter& w) {
      w.field("job", job_id);
      w.field("units", std::uint64_t{units->size()});
    }));
    if (v.getBool("watch").value_or(false))
      watchers.emplace_back(c.fd, job_id);
    touch();
    dispatch();
  }

  void writeJobSummary(JsonWriter& w, const std::string& id,
                       const JobRec& rec) {
    w.beginObject();
    w.field("id", id);
    w.field("kind", rec.spec.kind);
    const auto prog = sched.progress(id);
    if (rec.finished) {
      w.field("state", rec.status);
      w.field("units_done", std::uint64_t{rec.unit_records.size()});
      w.field("units_total", rec.units_total);
    } else if (prog) {
      w.field("state", jobStateName(prog->state));
      w.field("units_done", prog->units_done);
      w.field("units_total", prog->units_total);
      w.field("shards_in_flight", std::uint64_t{prog->shards_in_flight});
    } else {
      w.field("state", "unknown");
    }
    w.endObject();
  }

  void handleStatus(Client& c, const JsonValue& v) {
    const std::string job_id = v.getString("job").value_or("");
    JsonWriter w;
    w.beginObject();
    w.field("ok", true);
    w.field("draining", draining);
    if (!job_id.empty()) {
      const auto job = jobs.find(job_id);
      if (job == jobs.end()) {
        writeFrame(c.fd, errorReply("unknown job " + job_id));
        return;
      }
      w.key("job");
      writeJobSummary(w, job_id, job->second);
      std::map<std::string, std::uint64_t> verdicts;
      for (const auto& [unit, line] : job->second.unit_records)
        if (const auto rec = parseJson(line))
          if (const auto verdict = rec->getString("verdict"))
            ++verdicts[*verdict];
      w.key("verdicts").beginObject();
      for (const auto& [name, count] : verdicts) w.field(name, count);
      w.endObject();
      if (job->second.finished)
        w.key("final").rawValue(job->second.final_record);
    } else {
      w.key("jobs").beginArray();
      for (const auto& [id, rec] : jobs) writeJobSummary(w, id, rec);
      w.endArray();
      w.field("workers", std::uint64_t{workers.size()});
    }
    w.endObject();
    writeFrame(c.fd, w.str());
  }

  /// One rvsym-timeseries-v1 `status` record — byte-compatible with a
  /// --status-file document, so rvsym-top renders the daemon through
  /// the exact parser it uses for files.
  std::string statusRecord() {
    std::uint64_t done = 0, total = 0, running = 0, queued = 0,
                  finished = 0, failed = 0;
    for (const auto& [id, rec] : jobs) {
      if (rec.finished) {
        ++finished;
        if (rec.status == "failed") ++failed;
        done += rec.unit_records.size();
        total += rec.units_total;
        continue;
      }
      const auto prog = sched.progress(id);
      if (!prog) continue;
      done += prog->units_done;
      total += prog->units_total;
      if (prog->state == JobState::Running)
        ++running;
      else if (prog->state == JobState::Queued)
        ++queued;
    }
    const double t_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_time)
                           .count();
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  "jobs: %llu running, %llu queued, %llu finished "
                  "(%llu failed); workers %zu",
                  static_cast<unsigned long long>(running),
                  static_cast<unsigned long long>(queued),
                  static_cast<unsigned long long>(finished),
                  static_cast<unsigned long long>(failed), workers.size());

    JsonWriter w;
    w.beginObject();
    w.field("ev", "status");
    w.field("schema", "rvsym-timeseries-v1");
    w.field("version", std::uint64_t{1});
    w.field("kind", "serve");
    w.field("interval_s", 1.0);
    w.field("total_work", total);
    w.key("sample").beginObject();
    w.field("seq", status_seq++);
    w.field("t_s", t_s);
    w.key("work").beginObject();
    w.field("label", "units");
    w.field("done", done);
    w.field("total", total);
    w.endObject();
    w.field("extra", extra);
    w.endObject();
    w.endObject();
    return w.str();
  }

  /// The Prometheus text exposition: fleet aggregate (workers + the
  /// daemon's own registry), per-worker gauge series, per-job series.
  /// Gauges are set here, at render time, from daemon state — they are
  /// the only non-monotone values and stay stable while idle, so two
  /// idle scrapes are byte-identical.
  std::string renderMetricsText() {
    self.gauge("serve.workers").set(
        static_cast<std::int64_t>(workers.size()));
    std::int64_t active = 0;
    for (const auto& [id, rec] : jobs)
      if (!rec.finished) ++active;
    self.gauge("serve.jobs_active").set(active);

    fleet::ExpositionInput in;
    in.workers = agg.sources();
    in.workers["daemon"] = fleet::RegistrySnapshot::of(self);
    fleet::FleetAggregator all = agg;
    all.update("daemon", fleet::RegistrySnapshot::of(self));
    in.fleet = all.merged();
    for (const auto& [id, rec] : jobs) {
      fleet::JobSeries js;
      js.id = id;
      js.kind = rec.spec.kind;
      if (rec.finished) {
        js.state = rec.status;
        js.units_done = rec.unit_records.size();
        js.units_total = rec.units_total;
      } else if (const auto prog = sched.progress(id)) {
        js.state = jobStateName(prog->state);
        js.units_done = prog->units_done;
        js.units_total = prog->units_total;
      } else {
        js.state = "unknown";
        js.units_done = rec.unit_records.size();
        js.units_total = rec.units_total;
      }
      in.jobs.push_back(std::move(js));
    }
    return fleet::renderExposition(in);
  }

  /// Serves one buffered HTTP scrape once the blank line arrives. The
  /// exchange is deliberately minimal: any request gets the exposition
  /// (a scraper that GETs /metrics and one that GETs / both succeed).
  void serveScrape(int fd) {
    const std::string body = renderMetricsText();
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t put = ::send(fd, resp.data() + off, resp.size() - off,
                                 MSG_NOSIGNAL);
      if (put <= 0) break;
      off += static_cast<std::size_t>(put);
    }
  }

  // ---- event loop -------------------------------------------------------

  void touch() {
    last_activity = std::chrono::steady_clock::now();
    compacted_since_idle = false;
  }

  void dropClient(int fd) {
    clients.erase(fd);
    watchers.erase(std::remove_if(watchers.begin(), watchers.end(),
                                  [&](const auto& p) {
                                    return p.first == fd;
                                  }),
                   watchers.end());
    ::close(fd);
  }

  /// Idle housekeeping: compact the cache store once per idle period —
  /// the scheduler being idle means no worker can be mid-append.
  void maybeCompact() {
    if (options.cache_dir.empty() || compacted_since_idle) return;
    if (!sched.idle()) return;
    const double idle_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              last_activity)
                              .count();
    if (idle_s < options.idle_compact_s) return;
    std::string err;
    const auto entries = solver::CacheStore::compact(options.cache_dir,
                                                     &err);
    if (entries)
      logf("compacted cache store: %llu entries",
           static_cast<unsigned long long>(*entries));
    else
      std::fprintf(stderr, "rvsym-serve: compaction failed: %s\n",
                   err.c_str());
    compacted_since_idle = true;
  }

  bool drainComplete() {
    if (!draining) return false;
    if (!sched.idle()) return false;
    for (const auto& [id, rec] : jobs)
      if (!rec.finished && sched.progress(id)) return false;
    return true;
  }

  void shutdownWorkers() {
    JsonWriter w;
    w.beginObject();
    w.field("cmd", "exit");
    w.endObject();
    for (auto& [fd, worker] : workers) writeFrame(fd, w.str());
    while (!workers.empty())
      removeWorker(workers.begin()->first, /*respawn=*/false);
  }

  int run() {
    std::vector<pollfd> fds;
    char buf[64 * 1024];
    for (;;) {
      if (options.stop_flag && *options.stop_flag) break;
      if (drainComplete()) break;
      maybeCompact();

      fds.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      if (metrics_fd >= 0) fds.push_back({metrics_fd, POLLIN, 0});
      for (const auto& [fd, req] : scrapes) fds.push_back({fd, POLLIN, 0});
      for (const auto& [fd, c] : clients) fds.push_back({fd, POLLIN, 0});
      for (const auto& [fd, w] : workers) fds.push_back({fd, POLLIN, 0});
      const int n = ::poll(fds.data(), fds.size(), 200);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) continue;

      for (const pollfd& p : fds) {
        if (p.revents == 0) continue;
        if (p.fd == listen_fd) {
          const int cfd = ::accept(listen_fd, nullptr, nullptr);
          if (cfd >= 0) clients[cfd].fd = cfd;
          continue;
        }
        if (metrics_fd >= 0 && p.fd == metrics_fd) {
          const int sfd = ::accept(metrics_fd, nullptr, nullptr);
          if (sfd >= 0) scrapes[sfd];
          continue;
        }
        if (const auto sit = scrapes.find(p.fd); sit != scrapes.end()) {
          const ssize_t got = ::recv(p.fd, buf, sizeof buf, 0);
          if (got > 0)
            sit->second.append(buf, static_cast<std::size_t>(got));
          // End of request headers, connection closed, or a request far
          // past any sane GET line: answer (or give up) and close.
          const bool complete =
              sit->second.find("\r\n\r\n") != std::string::npos ||
              sit->second.find("\n\n") != std::string::npos;
          if (complete)
            serveScrape(p.fd);
          else if (got > 0 && sit->second.size() < 8192)
            continue;
          ::close(p.fd);
          scrapes.erase(sit);
          continue;
        }
        if (clients.count(p.fd)) {
          Client& c = clients[p.fd];
          const ssize_t got = ::recv(p.fd, buf, sizeof buf, 0);
          if (got <= 0) {
            dropClient(p.fd);
            continue;
          }
          c.dec.feed(std::string_view(buf, static_cast<std::size_t>(got)));
          std::string err;
          bool drop = false;
          while (const auto frame = c.dec.next(&err))
            onClientFrame(c, *frame);
          if (c.dec.corrupt()) drop = true;
          if (drop) dropClient(p.fd);
          continue;
        }
        const auto wit = workers.find(p.fd);
        if (wit == workers.end()) continue;
        Worker& w = *wit->second;
        const ssize_t got = ::recv(p.fd, buf, sizeof buf, 0);
        if (got <= 0 || (p.revents & (POLLHUP | POLLERR)) != 0) {
          if (got > 0)
            w.dec.feed(std::string_view(buf,
                                        static_cast<std::size_t>(got)));
          // Drain anything buffered before declaring the worker gone.
          std::string err;
          while (const auto frame = w.dec.next(&err))
            onWorkerFrame(w, *frame);
          removeWorker(p.fd, /*respawn=*/true);
          continue;
        }
        w.dec.feed(std::string_view(buf, static_cast<std::size_t>(got)));
        std::string err;
        while (const auto frame = w.dec.next(&err))
          onWorkerFrame(w, *frame);
        if (w.dec.corrupt()) removeWorker(p.fd, /*respawn=*/true);
      }
    }

    shutdownWorkers();
    if (!options.trace_dir.empty()) flushDaemonTrace();
    if (!options.cache_dir.empty()) {
      std::string err;
      solver::CacheStore::compact(options.cache_dir, &err);
    }
    for (const auto& [fd, c] : clients) ::close(fd);
    clients.clear();
    for (const auto& [fd, req] : scrapes) ::close(fd);
    scrapes.clear();
    if (metrics_fd >= 0) ::close(metrics_fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (options.endpoint.kind == Endpoint::Kind::Unix)
      ::unlink(options.endpoint.path.c_str());
    return 0;
  }
};

Daemon::Daemon(DaemonOptions options) : impl_(new Impl(std::move(options))) {}

Daemon::~Daemon() { delete impl_; }

bool Daemon::init(std::string* error) { return impl_->init(error); }

int Daemon::run() { return impl_->run(); }

}  // namespace rvsym::serve
