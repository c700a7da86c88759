#include "obs/timeseries.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"

namespace rvsym::obs {

namespace {

std::string headerJson(const TimeseriesOptions& opts) {
  JsonWriter w;
  w.beginObject();
  w.field("ev", "ts_header");
  w.field("schema", kTimeseriesSchema);
  w.field("version", kTimeseriesVersion);
  w.field("kind", opts.kind);
  w.field("interval_s", opts.interval_s);
  w.field("total_work", opts.total_work);
  w.endObject();
  return w.str();
}

void writeProgressSections(JsonWriter& w, const HeartbeatSnapshot& s) {
  if (s.has_paths) {
    w.key("paths").beginObject();
    w.field("done", s.paths_done);
    w.field("completed", s.paths_completed);
    w.field("errors", s.paths_error);
    w.field("partial", s.paths_partial);
    w.field("worklist", s.worklist_depth);
    w.endObject();
    w.field("instr", s.instructions);
  }
  if (s.has_campaign) {
    w.key("campaign").beginObject();
    w.field("total", s.mutants_total);
    w.field("judged", s.mutants_judged);
    w.field("killed", s.mutants_killed);
    w.field("survived", s.mutants_survived);
    w.field("equivalent", s.mutants_equivalent);
    w.endObject();
  }
  if (s.has_work) {
    w.key("work").beginObject();
    w.field("label", s.work_label);
    w.field("done", s.work_done);
    w.field("total", s.work_total);
    w.endObject();
  }
}

}  // namespace

std::string TimeseriesSampler::sampleJson(const HeartbeatSnapshot& s,
                                          MetricsRegistry* registry,
                                          std::uint64_t seq) {
  JsonWriter w;
  w.beginObject();
  w.field("ev", "sample");
  w.field("seq", seq);
  w.field("t_s", s.elapsed_s);
  writeProgressSections(w, s);
  if (s.has_solver) {
    w.key("solver").beginObject();
    w.field("qps", s.solver_qps);
    w.field("solves", s.solver_solves);
    w.field("p50_us", s.solver_p50_us);
    w.field("p90_us", s.solver_p90_us);
    w.field("p99_us", s.solver_p99_us);
    w.field("slow", s.slow_queries);
    w.key("answered").beginObject();
    w.field("exact", s.answered_exact);
    w.field("cexm", s.answered_cexm);
    w.field("cexc", s.answered_cexc);
    w.field("rw", s.answered_rw);
    w.field("sliced", s.answered_sliced);
    w.endObject();
    w.endObject();
    w.key("qcache").beginObject();
    w.field("hits", s.qcache_hits);
    w.field("misses", s.qcache_misses);
    w.field("hit_rate", s.cacheHitRate());
    w.endObject();
  }
  if (!s.extra.empty()) w.field("extra", s.extra);
  if (registry != nullptr) {
    // Splice the registry dump's three sections into the sample record
    // (toSummaryJson returns {"counters":..,"gauges":..,"hist":..}).
    const std::string reg = registry->toSummaryJson();
    w.key("registry").rawValue(reg);
  }
  w.endObject();
  return w.str();
}

std::string TimeseriesSampler::finalJson(const HeartbeatSnapshot& s,
                                         const std::string& kind, double t_s,
                                         std::uint64_t samples) {
  // Field order: deterministic workload-derived fields first, then the
  // t_/qc_-prefixed timing-dependent tail — the same canonicalization
  // convention the trace/journal footers use, so obs::analyze can diff
  // two runs' ts_final records by dropping the prefixed fields.
  JsonWriter w;
  w.beginObject();
  w.field("ev", "ts_final");
  w.field("kind", kind);
  writeProgressSections(w, s);
  w.field("t_s", t_s);
  w.field("t_samples", samples);
  if (s.has_solver) {
    w.field("t_solves", s.solver_solves);
    w.field("t_slow", s.slow_queries);
    w.field("t_sliced", s.answered_sliced);
    w.field("qc_hits", s.qcache_hits);
    w.field("qc_misses", s.qcache_misses);
    // The disposition split races on the shared caches (which worker
    // solves first decides exact-hit vs cex-hit vs solve), hence the
    // parity-stripped prefix despite being counts, not times.
    w.key("qc_answered").beginObject();
    w.field("exact", s.answered_exact);
    w.field("cexm", s.answered_cexm);
    w.field("cexc", s.answered_cexc);
    w.field("rw", s.answered_rw);
    w.endObject();
  }
  w.endObject();
  return w.str();
}

TimeseriesSampler::TimeseriesSampler(TimeseriesOptions opts,
                                     MetricsRegistry& registry,
                                     Decorate decorate)
    : opts_(std::move(opts)),
      registry_(registry),
      decorate_(std::move(decorate)) {}

TimeseriesSampler::~TimeseriesSampler() { stop(); }

bool TimeseriesSampler::start(std::string* error) {
  if (running_) return true;
  if (opts_.out_path.empty() && opts_.status_path.empty()) {
    if (error) *error = "timeseries sampler needs an output or status path";
    return false;
  }
  if (opts_.interval_s <= 0) opts_.interval_s = 0.5;
  if (!opts_.out_path.empty()) {
    stream_ = std::fopen(opts_.out_path.c_str(), "wb");
    if (stream_ == nullptr) {
      if (error) *error = "cannot open " + opts_.out_path;
      return false;
    }
    const std::string header = headerJson(opts_);
    std::fprintf(stream_, "%s\n", header.c_str());
    std::fflush(stream_);
  }
  start_time_ = std::chrono::steady_clock::now();
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { threadMain(); });
  return true;
}

void TimeseriesSampler::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();

  // Final sample (covers runs shorter than one interval) + the
  // deterministic closing record.
  const std::uint64_t seq = samples_.fetch_add(1, std::memory_order_relaxed);
  HeartbeatSnapshot s = snapshotNow();
  if (stream_ != nullptr) {
    std::fprintf(stream_, "%s\n",
                 sampleJson(s, &registry_, seq).c_str());
    std::fprintf(
        stream_, "%s\n",
        finalJson(s, opts_.kind, s.elapsed_s, samples_.load()).c_str());
    std::fflush(stream_);
    std::fclose(stream_);
    stream_ = nullptr;
  }
  writeStatus(s, seq);
  running_ = false;
}

HeartbeatSnapshot TimeseriesSampler::snapshotNow() {
  HeartbeatSnapshot s;
  s.elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_time_)
                    .count();
  s.readProgress(registry_);
  s.readRegistry(registry_);
  if (opts_.total_work != 0 && !s.has_work && !s.has_campaign) {
    // Producers that track progress only via engine.* counters still
    // get a done-vs-total section from the header denominator.
    s.has_work = true;
    s.work_label = "paths";
    s.work_done = s.paths_done;
    s.work_total = opts_.total_work;
  }
  if (decorate_) decorate_(s);
  return s;
}

void TimeseriesSampler::tick(std::uint64_t seq) {
  HeartbeatSnapshot s = snapshotNow();
  if (stream_ != nullptr) {
    std::fprintf(stream_, "%s\n",
                 sampleJson(s, &registry_, seq).c_str());
    std::fflush(stream_);
  }
  writeStatus(s, seq);
  if (opts_.echo_stderr) emitHeartbeatLine(s, opts_.stderr_prefix);
}

void TimeseriesSampler::writeStatus(const HeartbeatSnapshot& s,
                                    std::uint64_t seq) {
  if (opts_.status_path.empty()) return;
  // One JSON object combining the header fields with the latest sample,
  // rewritten atomically (tmp + rename) so readers never see a torn
  // document.
  JsonWriter w;
  w.beginObject();
  w.field("ev", "status");
  w.field("schema", kTimeseriesSchema);
  w.field("version", kTimeseriesVersion);
  w.field("kind", opts_.kind);
  w.field("interval_s", opts_.interval_s);
  w.field("total_work", opts_.total_work);
  w.key("sample").rawValue(sampleJson(s, &registry_, seq));
  w.endObject();
  const std::string tmp = opts_.status_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  std::rename(tmp.c_str(), opts_.status_path.c_str());
}

void TimeseriesSampler::threadMain() {
  const auto interval = std::chrono::duration<double>(opts_.interval_s);
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lk, interval, [this] { return stop_requested_; })) break;
    const std::uint64_t seq = samples_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    tick(seq);
    lk.lock();
  }
}

}  // namespace rvsym::obs
