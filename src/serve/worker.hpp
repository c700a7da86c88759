// Serve worker — executes shards the daemon assigns.
//
// One worker = one judging context: a QueryCache/CexCache pair warmed
// from the persistent cache store at startup and shared across every
// shard the worker runs (mutants replay near-identical decode
// cascades, so cross-job verdict reuse is the service's whole point),
// a metrics registry whose solver.check_us histogram counts the real
// SAT solves behind each unit. In process mode a judging crash kills
// only the worker: the daemon sees a dead socket, not a signal.
//
// workerMain() speaks rvsym-serve-v1 over a single fd; it is the body
// of both deployment shapes: `rvsym-serve worker` child processes
// (fork/exec, fd = socketpair end) and in-process worker threads
// (tests; fd = one end of socketpair(2), same code path).
#pragma once

#include <string>

namespace rvsym::serve {

struct WorkerConfig {
  std::string cache_dir;  ///< persistent cache store ("" = none)
  std::string tag;        ///< cache-store segment tag (unique per worker)
  unsigned engine_jobs = 1;  ///< exploration threads per hunt
  /// Test hook: after this many units, simulate a judging crash by
  /// closing the connection (thread mode) instead of raising a fatal
  /// signal. 0 = off. Process mode uses RVSYM_SERVE_CRASH_AFTER_UNITS
  /// with a real SIGSEGV instead.
  unsigned fail_after_units = 0;
};

/// Runs the worker protocol loop on `fd` until an exit command or EOF.
/// Returns the process exit code (0 on clean exit).
int workerMain(int fd, const WorkerConfig& config);

}  // namespace rvsym::serve
