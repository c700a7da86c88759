// rvsym-serve — the distributed verification campaign service.
//
//   rvsym-serve daemon --socket EP --state-dir DIR [--cache-dir DIR]
//       [--workers N] [--engine-jobs N] [--units-per-shard N]
//       [--max-queued-jobs N] [--idle-compact SECS]
//       [--thread-workers] [--fail-after-units N] [--verbose]
//       Run the campaign server: accept jobs over EP ("unix:<path>" or
//       "tcp:<port>", loopback), schedule them across worker processes
//       that share the persistent query-cache store, journal every
//       verdict (kill -9 at any instant resumes on restart), and
//       compact the cache store while idle.
//
//   rvsym-serve submit --socket EP (--mutate | --verify | --replay DIR)
//       [--kinds K,...] [--ops OP,...] [--mutant ID ...]
//       [--min-instr-limit K] [--max-instr-limit K] [--max-paths N]
//       [--max-seconds S] [--scenario S] [--solver-opt S]
//       [--max-shards N] [--wait]
//       Submit one job. --wait streams unit verdicts until the final
//       record and exits 0 iff the job finished "done".
//
//   rvsym-serve status --socket EP [--job ID] [--json]
//   rvsym-serve cancel --socket EP --job ID
//   rvsym-serve drain  --socket EP [--wait]
//   rvsym-serve ping   --socket EP [--json]
//   rvsym-serve scrape --socket EP
//       Fetch the fleet-wide Prometheus text exposition (DESIGN.md §13)
//       over the frame protocol and print it verbatim. The same text is
//       served as plain HTTP on the daemon's --metrics-listen endpoint.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/json_reader.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/proto.hpp"
#include "serve/worker.hpp"

namespace {

using namespace rvsym;
using obs::JsonWriter;
using obs::analyze::JsonValue;
using obs::analyze::parseJson;

int usage() {
  std::fprintf(
      stderr,
      "usage: rvsym-serve daemon --socket EP --state-dir DIR\n"
      "           [--cache-dir DIR] [--workers N] [--engine-jobs N]\n"
      "           [--units-per-shard N] [--max-queued-jobs N]\n"
      "           [--idle-compact SECS]\n"
      "           [--metrics-listen EP] [--trace-events-dir DIR]\n"
      "           [--no-history]\n"
      "           [--thread-workers] [--fail-after-units N] [--verbose]\n"
      "       rvsym-serve submit --socket EP\n"
      "           (--mutate | --verify | --replay DIR)\n"
      "           [--kinds K,...] [--ops OP,...] [--mutant ID ...]\n"
      "           [--min-instr-limit K] [--max-instr-limit K]\n"
      "           [--max-paths N] [--max-seconds S] [--scenario S]\n"
      "           [--solver-opt S] [--max-shards N] [--wait]\n"
      "       rvsym-serve status --socket EP [--job ID] [--json]\n"
      "       rvsym-serve cancel --socket EP --job ID\n"
      "       rvsym-serve drain --socket EP [--wait]\n"
      "       rvsym-serve ping --socket EP [--json]\n"
      "       rvsym-serve scrape --socket EP\n"
      "\n"
      "EP is unix:<path> or tcp:<port> (loopback only).\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

std::vector<std::string> splitList(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

bool parseEndpointArg(const std::string& spec, serve::Endpoint& ep) {
  std::string err;
  const auto parsed = serve::parseEndpoint(spec, &err);
  if (!parsed) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return false;
  }
  ep = *parsed;
  return true;
}

int runDaemon(int argc, char** argv) {
  serve::DaemonOptions opts;
  bool have_socket = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (!v || !parseEndpointArg(v, opts.endpoint)) return 2;
      have_socket = true;
    } else if (arg == "--state-dir") {
      const char* v = next();
      if (!v) return usage();
      opts.state_dir = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (!v) return usage();
      opts.cache_dir = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return usage();
      opts.workers = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--engine-jobs") {
      const char* v = next();
      if (!v) return usage();
      opts.engine_jobs = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--units-per-shard") {
      const char* v = next();
      if (!v) return usage();
      opts.sched.units_per_shard = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--max-queued-jobs") {
      const char* v = next();
      if (!v) return usage();
      opts.sched.max_queued_jobs = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--idle-compact") {
      const char* v = next();
      if (!v) return usage();
      opts.idle_compact_s = std::atof(v);
    } else if (arg == "--metrics-listen") {
      const char* v = next();
      serve::Endpoint mep;
      if (!v || !parseEndpointArg(v, mep)) return 2;
      opts.metrics_listen = mep;
    } else if (arg == "--trace-events-dir") {
      const char* v = next();
      if (!v) return usage();
      opts.trace_dir = v;
    } else if (arg == "--no-history") {
      opts.history = false;
    } else if (arg == "--thread-workers") {
      opts.thread_workers = true;
    } else if (arg == "--fail-after-units") {
      const char* v = next();
      if (!v) return usage();
      opts.worker_fail_after_units = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      return usage();
    }
  }
  if (!have_socket || opts.state_dir.empty()) return usage();
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  opts.stop_flag = &g_stop;
  serve::Daemon daemon(std::move(opts));
  std::string err;
  if (!daemon.init(&err)) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  return daemon.run();
}

void printUnitRecord(const JsonValue& v) {
  const std::string unit = v.getString("unit").value_or("?");
  if (const auto error = v.getString("error")) {
    std::printf("  %-28s ERROR %s\n", unit.c_str(), error->c_str());
    return;
  }
  const std::string verdict = v.getString("verdict").value_or("?");
  if (const auto limit = v.getU64("kill_instr_limit"))
    std::printf("  %-28s %s (limit %llu)\n", unit.c_str(), verdict.c_str(),
                static_cast<unsigned long long>(*limit));
  else
    std::printf("  %-28s %s\n", unit.c_str(), verdict.c_str());
}

void printFinalRecord(const JsonValue& v) {
  std::printf("final: %s — %llu/%llu units",
              v.getString("status").value_or("?").c_str(),
              static_cast<unsigned long long>(
                  v.getU64("units_done").value_or(0)),
              static_cast<unsigned long long>(
                  v.getU64("units_total").value_or(0)));
  if (const JsonValue* verdicts = v.find("verdicts")) {
    for (const auto& [name, count] : verdicts->members())
      std::printf(", %s %llu", name.c_str(),
                  static_cast<unsigned long long>(count.asU64()));
  }
  std::printf(" (sat solves %llu, qcache %llu/%llu)\n",
              static_cast<unsigned long long>(
                  v.getU64("qc_sat_solves").value_or(0)),
              static_cast<unsigned long long>(
                  v.getU64("qc_hits").value_or(0)),
              static_cast<unsigned long long>(
                  v.getU64("qc_misses").value_or(0)));
}

int runSubmit(const serve::Endpoint& ep, const serve::JobSpec& spec,
              bool wait) {
  std::string err;
  const int fd = serve::connectTo(ep, &err);
  if (fd < 0) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  JsonWriter w;
  w.beginObject();
  w.field("cmd", "submit");
  w.key("spec").rawValue(spec.toJson());
  if (wait) w.field("watch", true);
  w.endObject();
  const auto reply = serve::request(fd, w.str(), &err);
  if (!reply) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    ::close(fd);
    return 1;
  }
  const auto v = parseJson(*reply);
  if (!v || !v->getBool("ok").value_or(false)) {
    std::fprintf(stderr, "rvsym-serve: submit refused: %s\n",
                 v ? v->getString("error").value_or("?").c_str()
                   : "unparsable reply");
    ::close(fd);
    return 1;
  }
  const std::string job = v->getString("job").value_or("?");
  std::printf("submitted %s (%llu units)\n", job.c_str(),
              static_cast<unsigned long long>(v->getU64("units").value_or(0)));
  if (!wait) {
    ::close(fd);
    return 0;
  }
  // Stream unit verdicts until the final record.
  int code = 1;
  for (;;) {
    const auto frame = serve::readFrame(fd, &err);
    if (!frame) {
      std::fprintf(stderr, "rvsym-serve: %s\n",
                   err.empty() ? "daemon closed the stream" : err.c_str());
      break;
    }
    const auto rec = parseJson(*frame);
    if (!rec) continue;
    const std::string ev = rec->getString("ev").value_or("");
    if (ev == "unit") {
      printUnitRecord(*rec);
    } else if (ev == "final") {
      printFinalRecord(*rec);
      code = rec->getString("status").value_or("") == "done" ? 0 : 1;
      break;
    }
  }
  ::close(fd);
  return code;
}

int runStatus(const serve::Endpoint& ep, const std::string& job,
              bool raw_json) {
  JsonWriter w;
  w.beginObject();
  w.field("cmd", "status");
  if (!job.empty()) w.field("job", job);
  w.endObject();
  std::string err;
  const auto reply = serve::requestOnce(ep, w.str(), &err);
  if (!reply) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  if (raw_json) {
    std::printf("%s\n", reply->c_str());
    return 0;
  }
  const auto v = parseJson(*reply);
  if (!v || !v->getBool("ok").value_or(false)) {
    std::fprintf(stderr, "rvsym-serve: %s\n",
                 v ? v->getString("error").value_or("?").c_str()
                   : "unparsable reply");
    return 1;
  }
  const auto summary = [](const JsonValue& j) {
    std::printf("%-6s %-8s %-10s %llu/%llu",
                j.getString("id").value_or("?").c_str(),
                j.getString("kind").value_or("?").c_str(),
                j.getString("state").value_or("?").c_str(),
                static_cast<unsigned long long>(
                    j.getU64("units_done").value_or(0)),
                static_cast<unsigned long long>(
                    j.getU64("units_total").value_or(0)));
    if (const auto shards = j.getU64("shards_in_flight"))
      std::printf("  (%llu shards in flight)",
                  static_cast<unsigned long long>(*shards));
    std::printf("\n");
  };
  if (const JsonValue* detail = v->find("job")) {
    summary(*detail);
    if (const JsonValue* verdicts = v->find("verdicts"))
      for (const auto& [name, count] : verdicts->members())
        std::printf("  %s: %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count.asU64()));
    if (const JsonValue* final_rec = v->find("final")) printFinalRecord(*final_rec);
    return 0;
  }
  if (const JsonValue* jobs = v->find("jobs")) {
    if (jobs->items().empty()) std::printf("no jobs\n");
    for (const auto& j : jobs->items()) summary(j);
  }
  if (v->getBool("draining").value_or(false)) std::printf("(draining)\n");
  return 0;
}

int runSimple(const serve::Endpoint& ep, const char* cmd,
              const std::string& job) {
  JsonWriter w;
  w.beginObject();
  w.field("cmd", cmd);
  if (!job.empty()) w.field("job", job);
  w.endObject();
  std::string err;
  const auto reply = serve::requestOnce(ep, w.str(), &err);
  if (!reply) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  const auto v = parseJson(*reply);
  if (!v || !v->getBool("ok").value_or(false)) {
    std::fprintf(stderr, "rvsym-serve: %s\n",
                 v ? v->getString("error").value_or("?").c_str()
                   : "unparsable reply");
    return 1;
  }
  std::printf("%s\n", reply->c_str());
  return 0;
}

int runPing(const serve::Endpoint& ep, bool raw_json) {
  JsonWriter w;
  w.beginObject();
  w.field("cmd", "ping");
  w.endObject();
  std::string err;
  const auto reply = serve::requestOnce(ep, w.str(), &err);
  if (!reply) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  const auto v = parseJson(*reply);
  if (!v || !v->getBool("ok").value_or(false)) {
    std::fprintf(stderr, "rvsym-serve: %s\n",
                 v ? v->getString("error").value_or("?").c_str()
                   : "unparsable reply");
    return 1;
  }
  if (raw_json) {
    std::printf("%s\n", reply->c_str());
    return 0;
  }
  std::printf("pong: %llu workers, %llu jobs%s\n",
              static_cast<unsigned long long>(
                  v->getU64("workers").value_or(0)),
              static_cast<unsigned long long>(v->getU64("jobs").value_or(0)),
              v->getBool("draining").value_or(false) ? " (draining)" : "");
  return 0;
}

int runScrape(const serve::Endpoint& ep) {
  JsonWriter w;
  w.beginObject();
  w.field("cmd", "metrics");
  w.endObject();
  std::string err;
  const auto reply = serve::requestOnce(ep, w.str(), &err);
  if (!reply) {
    std::fprintf(stderr, "rvsym-serve: %s\n", err.c_str());
    return 1;
  }
  const auto v = parseJson(*reply);
  if (!v || !v->getBool("ok").value_or(false)) {
    std::fprintf(stderr, "rvsym-serve: %s\n",
                 v ? v->getString("error").value_or("?").c_str()
                   : "unparsable reply");
    return 1;
  }
  const auto text = v->getString("exposition");
  if (!text) {
    std::fprintf(stderr, "rvsym-serve: metrics reply has no exposition\n");
    return 1;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

/// Blocks until the daemon's endpoint stops accepting connections.
int waitForExit(const serve::Endpoint& ep) {
  for (;;) {
    std::string err;
    const int fd = serve::connectTo(ep, &err);
    if (fd < 0) return 0;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "daemon") return runDaemon(argc - 2, argv + 2);

  serve::Endpoint ep;
  bool have_socket = false;
  std::string job;
  bool wait = false, raw_json = false;
  serve::JobSpec spec;
  bool have_kind = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (!v || !parseEndpointArg(v, ep)) return 2;
      have_socket = true;
    } else if (arg == "--job") {
      const char* v = next();
      if (!v) return usage();
      job = v;
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--json") {
      raw_json = true;
    } else if (arg == "--mutate") {
      spec.kind = "mutate";
      have_kind = true;
    } else if (arg == "--verify") {
      spec.kind = "verify";
      have_kind = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return usage();
      spec.kind = "replay";
      spec.corpus_dir = v;
      have_kind = true;
    } else if (arg == "--kinds") {
      const char* v = next();
      if (!v) return usage();
      spec.kinds = splitList(v);
    } else if (arg == "--ops") {
      const char* v = next();
      if (!v) return usage();
      spec.ops = splitList(v);
    } else if (arg == "--mutant") {
      const char* v = next();
      if (!v) return usage();
      spec.mutant_ids.push_back(v);
    } else if (arg == "--min-instr-limit") {
      const char* v = next();
      if (!v) return usage();
      spec.min_instr_limit = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--max-instr-limit") {
      const char* v = next();
      if (!v) return usage();
      spec.max_instr_limit = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--max-paths") {
      const char* v = next();
      if (!v) return usage();
      spec.max_paths_per_hunt = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--max-seconds") {
      const char* v = next();
      if (!v) return usage();
      spec.max_seconds_per_hunt = std::atof(v);
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return usage();
      spec.scenario = v;
    } else if (arg == "--solver-opt") {
      const char* v = next();
      if (!v) return usage();
      spec.solver_opt = v;
    } else if (arg == "--max-shards") {
      const char* v = next();
      if (!v) return usage();
      spec.max_shards = static_cast<unsigned>(std::atoi(v));
    } else {
      return usage();
    }
  }
  if (!have_socket) return usage();

  if (mode == "submit") {
    if (!have_kind) return usage();
    return runSubmit(ep, spec, wait);
  }
  if (mode == "status") return runStatus(ep, job, raw_json);
  if (mode == "cancel") {
    if (job.empty()) return usage();
    return runSimple(ep, "cancel", job);
  }
  if (mode == "drain") {
    const int rc = runSimple(ep, "drain", "");
    if (rc != 0 || !wait) return rc;
    return waitForExit(ep);
  }
  if (mode == "ping") return runPing(ep, raw_json);
  if (mode == "scrape") return runScrape(ep);
  return usage();
}
