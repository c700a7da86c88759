// TimeseriesSampler — the live machine-readable telemetry stream
// (`rvsym-timeseries-v1`) behind --timeseries-out / --status-file.
//
// A background thread wakes every interval, builds one
// HeartbeatSnapshot (progress sections from the engine.*/campaign.*
// registry instruments, solver/cache liveness from the solver
// instruments — the registry is the sampler's only view of the run, so
// it never races with engine internals), and appends one JSONL record
// to the stream:
//
//   {"ev":"ts_header","schema":"rvsym-timeseries-v1","version":1,
//    "kind":"verify","interval_s":0.5,"total_work":0}
//   {"ev":"sample","seq":0,"t_s":0.5,
//    "paths":{"done":..,"completed":..,"errors":..,"partial":..,
//             "worklist":..},
//    "instr":..,
//    "solver":{"qps":..,"solves":..,"p50_us":..,"p90_us":..,"p99_us":..,
//              "slow":..,
//              "answered":{"exact":..,"cexm":..,"cexc":..,"rw":..,
//                          "sliced":..}},
//    "qcache":{"hits":..,"misses":..},
//    "counters":{...},"gauges":{...},
//    "hist":{name:{"count":..,"sum_us":..,"p50_us":..,"p90_us":..,
//                  "p99_us":..}}}
//   ...
//   {"ev":"ts_final","kind":"verify",
//    "paths":{...},"instr":..,  <- deterministic across --jobs
//    "t_s":..,"t_samples":..,"qc_hits":..,"qc_misses":..}
//
// Determinism canonicalization: every `sample` record is wall-clock
// driven and therefore timing-dependent end to end, but the closing
// `ts_final` record follows the trace/journal field convention — fields
// prefixed `t_` / `qc_` are timing-dependent, everything else (final
// path counts, instructions, campaign verdict counts) is byte-identical
// across --jobs values for a fixed workload. obs::analyze diffs two
// streams on exactly the header + canonicalized ts_final.
//
// --status-file: alongside (or instead of) the stream, each tick
// rewrites one JSON object (header fields + the latest sample)
// atomically — write to <path>.tmp, then rename — so a live monitor can
// read it at any instant without tearing.
//
// Zero-cost contract: no sampler object exists unless a flag asked for
// one.
//
// A stream whose producer died before stop() ends without ts_final;
// loadTimeseries keeps its samples and reports the missing footer (and
// a torn last line, if any).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"

namespace rvsym::obs {

inline constexpr const char* kTimeseriesSchema = "rvsym-timeseries-v1";
inline constexpr int kTimeseriesVersion = 1;

struct TimeseriesOptions {
  /// JSONL stream path ("" = no stream; status_path may still be set).
  std::string out_path;
  /// Atomically rewritten latest-status JSON object ("" = off).
  std::string status_path;
  double interval_s = 0.5;
  /// Producer kind recorded in the header: "verify" | "mutate" |
  /// "bench" | free-form.
  std::string kind = "verify";
  /// Known work denominator (mutants to judge, benches to run, the
  /// --paths budget); 0 = open-ended. rvsym-top derives ETA from it.
  std::uint64_t total_work = 0;
  /// Also emit every sample as a stderr heartbeat line (lets the
  /// sampler double as --heartbeat when both are requested).
  bool echo_stderr = false;
  const char* stderr_prefix = "rvsym";
};

class TimeseriesSampler {
 public:
  /// Optional decorator: called on the sampler thread after the
  /// registry sections are filled, before serialization — producers add
  /// work-unit progress or extra text here.
  using Decorate = std::function<void(HeartbeatSnapshot&)>;

  TimeseriesSampler(TimeseriesOptions opts, MetricsRegistry& registry,
                    Decorate decorate = nullptr);
  ~TimeseriesSampler();

  /// Opens the stream, writes the ts_header record and starts the
  /// sampling thread. False (and *error) on I/O failure; the sampler is
  /// then inert.
  bool start(std::string* error = nullptr);

  /// Takes one final sample, appends the ts_final record, joins the
  /// thread and closes the stream. Idempotent; the destructor calls it.
  void stop();

  bool running() const { return running_; }
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// One rvsym-timeseries-v1 sample record for `s` plus the registry
  /// dump (exposed for tests and the offline tooling).
  static std::string sampleJson(const HeartbeatSnapshot& s,
                                MetricsRegistry* registry,
                                std::uint64_t seq);
  /// The deterministic closing record (t_/qc_ fields are the only
  /// timing-dependent ones).
  static std::string finalJson(const HeartbeatSnapshot& s,
                               const std::string& kind, double t_s,
                               std::uint64_t samples);

 private:
  void threadMain();
  HeartbeatSnapshot snapshotNow();
  void tick(std::uint64_t seq);
  void writeStatus(const HeartbeatSnapshot& s, std::uint64_t seq);

  TimeseriesOptions opts_;
  MetricsRegistry& registry_;
  Decorate decorate_;
  std::FILE* stream_ = nullptr;
  std::chrono::steady_clock::time_point start_time_;
  std::atomic<std::uint64_t> samples_{0};
  bool running_ = false;
  bool stop_requested_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace rvsym::obs
