// Daemon — the rvsym-serve campaign server.
//
// One single-threaded poll() loop owns everything: the listen socket,
// every client connection, and one socket per worker. Workers are the
// only place judging happens — by default each is a forked child
// process running workerMain() (a judging crash kills the child, the
// daemon sees a dead socket, and the job is marked failed), or an
// in-process thread in `thread_workers` mode (tests, TSan).
//
// Durability: the JobStore journal is appended and flushed per unit
// verdict, so kill -9 of the daemon at any instant loses at most the
// line in flight. init() replays the store: unfinished jobs are
// re-admitted with their judged units skipped, and because unit
// verdicts are deterministic the resumed job converges to the same
// final verdict set the uninterrupted run would have produced.
//
// The persistent cache store is the workers' to read and append;
// the daemon's only cache-store duty is compaction, which it runs when
// the scheduler has been idle for `idle_compact_s` — exactly when no
// worker can be mid-append.
#pragma once

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>

#include "serve/proto.hpp"
#include "serve/scheduler.hpp"

namespace rvsym::serve {

struct DaemonOptions {
  Endpoint endpoint;
  std::string state_dir;          ///< job store root (required)
  std::string cache_dir;          ///< persistent cache store ("" = none)
  /// Optional second listen endpoint answering plain HTTP GETs with the
  /// Prometheus text exposition, so external scrapers never need the
  /// frame protocol. Unset = off.
  std::optional<Endpoint> metrics_listen;
  /// When set, the daemon maintains Chrome-trace files here —
  /// daemon.trace.json plus worker-<id>.trace.json from shipped
  /// spans_report batches — for `rvsym-report trace-events --merge`.
  std::string trace_dir;
  /// Append one rvsym-runs-v1 record per finalized job to
  /// <state_dir>/runs.rvhx (DESIGN.md §13).
  bool history = true;
  unsigned workers = 2;
  unsigned engine_jobs = 1;       ///< exploration threads per hunt
  Scheduler::Options sched{};
  double idle_compact_s = 2.0;    ///< idle seconds before compaction
  /// Workers as in-process threads instead of forked children (tests /
  /// TSan; crashes are simulated by dropping the socket).
  bool thread_workers = false;
  /// Test hook for thread workers: drop the connection after N units.
  unsigned worker_fail_after_units = 0;
  /// Graceful-stop flag (a SIGTERM handler sets it); polled each loop.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
  bool verbose = false;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  /// Binds the endpoint, loads + resumes the job store, spawns workers.
  bool init(std::string* error);

  /// Serves until a drain completes or the stop flag is raised.
  /// Returns the process exit code.
  int run();

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace rvsym::serve
