// MetricsRegistry — thread-safe counters, gauges and fixed-bucket
// latency histograms for the symbolic co-simulation engine.
//
// Design constraints (mirrored from the engine's threading model):
//  * record-side calls are lock-free (single atomic RMW) so workers can
//    instrument hot paths — solver checks, per-instruction step times —
//    without serializing on a registry mutex;
//  * instrument handles returned by counter()/gauge()/histogram() are
//    stable for the registry's lifetime (node-based storage), so callers
//    cache the reference once and never re-look-up by name;
//  * one JSON snapshot serializer (obs/json.hpp) that every consumer —
//    EngineReport emission, rvsym-verify --metrics-out, the benches —
//    reuses instead of hand-rolling its own format.
//
// Histograms use fixed power-of-two buckets in microseconds (1us ..
// ~34s), which keeps recording a single clz + atomic increment and makes
// snapshots from different runs directly comparable (identical bounds).
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace rvsym::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t get() const { return v_.load(std::memory_order_relaxed); }
  /// Tracks the maximum value ever set()/sample()d.
  void sampleMax(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket latency histogram. Bucket i counts samples in
/// [2^i, 2^(i+1)) microseconds; bucket 0 also absorbs sub-microsecond
/// samples, the last bucket absorbs everything above ~17s.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 25;  // 1us .. 2^24us (~16.8s) +overflow

  void record(std::uint64_t micros) {
    buckets_[bucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  }
  void recordSeconds(double s) {
    record(s <= 0 ? 0 : static_cast<std::uint64_t>(s * 1e6));
  }

  static unsigned bucketFor(std::uint64_t micros) {
    unsigned b = 0;
    while (b + 1 < kBuckets && micros >= (1ull << (b + 1))) ++b;
    return b;
  }
  /// Inclusive lower bound of bucket `i` in microseconds.
  static std::uint64_t bucketLowerBound(unsigned i) {
    return i == 0 ? 0 : (1ull << i);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sumMicros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(unsigned i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Bucket-wise add of `other` into this histogram — the fleet
  /// aggregation primitive (DESIGN.md §13). Power-of-2 buckets are
  /// identical across histograms, so merging is exact at bucket
  /// resolution: quantiles of the merged histogram match quantiles of
  /// the pooled samples to within one bucket. Safe against concurrent
  /// record() on either side; the merged totals are a snapshot.
  void merge(const Histogram& other) {
    for (unsigned i = 0; i < kBuckets; ++i)
      buckets_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_micros_.fetch_add(other.sumMicros(), std::memory_order_relaxed);
  }

  /// Raw accumulation for rebuilding a histogram from a serialized
  /// snapshot (a metrics_report frame): adds `n` samples to bucket `i`
  /// and `sum_us` microseconds to the sum. Out-of-range buckets clamp
  /// to the overflow bucket.
  void addRaw(unsigned i, std::uint64_t n, std::uint64_t sum_us) {
    if (i >= kBuckets) i = kBuckets - 1;
    buckets_[i].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_micros_.fetch_add(sum_us, std::memory_order_relaxed);
  }

  /// Approximate quantile from the power-of-2 buckets: the inclusive
  /// lower bound of the bucket holding the q-th sample (q in [0,1]).
  /// Resolution is the bucket width — good enough to tell a 100µs p99
  /// from a 10ms one, which is what the summaries are for. Returns 0
  /// for an empty histogram.
  std::uint64_t quantileLowerBound(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += bucket(i);
      if (seen >= quantileRank(q, total)) return bucketLowerBound(i);
    }
    return bucketLowerBound(kBuckets - 1);
  }

  /// Quantile estimate in microseconds with defined edge-case values
  /// (the contract heartbeats, the timeseries sampler and rvsym-top
  /// rely on):
  ///  * empty histogram          -> 0;
  ///  * every sample in ONE bucket (so also a single sample) -> the
  ///    mean sum/count, which is exact for one sample and always lies
  ///    inside the bucket instead of pinning to its boundary;
  ///  * otherwise -> linear interpolation of the q-th sample's rank
  ///    position inside its bucket's [lower, upper) range; the
  ///    overflow bucket has no upper bound and degrades to its lower
  ///    bound.
  /// Concurrent recording can skew the mean-based case by the in-flight
  /// samples — acceptable for the live summaries this feeds.
  std::uint64_t quantileMicros(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    const std::uint64_t rank = quantileRank(q, total);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = bucket(i);
      if (n == 0) continue;
      if (seen + n >= rank) {
        if (n >= total) return sumMicros() / total;
        const std::uint64_t lo = bucketLowerBound(i);
        if (i + 1 >= kBuckets) return lo;  // open-ended overflow bucket
        const std::uint64_t hi = 1ull << (i + 1);
        // Midpoint convention: the k-th of n samples sits at
        // (k - 0.5) / n of the bucket width.
        const double pos =
            (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(n);
        return lo + static_cast<std::uint64_t>(
                        pos * static_cast<double>(hi - lo));
      }
      seen += n;
    }
    return bucketLowerBound(kBuckets - 1);
  }

 private:
  /// 1-based rank of the q-th sample: ceil(q * total) clamped to
  /// [1, total], so q=0.5 over three samples selects the second (the
  /// true median) instead of truncating to the first.
  static std::uint64_t quantileRank(double q, std::uint64_t total) {
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    return rank;
  }

  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_micros_{0};
};

/// RAII stopwatch recording into a histogram on destruction. A null
/// histogram makes the timer a no-op (the disabled-observability path
/// costs one branch and no clock read).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_)
      h_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. Thread-safe;
  /// the returned reference is stable for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One JSON snapshot of every registered instrument:
  ///   {"counters": {...}, "gauges": {name: {"value":V,"max":M}, ...},
  ///    "histograms": {name: {"count":N,"sum_us":S,
  ///                          "buckets":[{"ge_us":B,"n":N}, ...]}, ...}}
  /// Histogram buckets with zero samples are elided.
  std::string toJson() const;

  /// Compact snapshot for periodic sampling: full counters and gauges,
  /// but histograms reduced to count/sum plus interpolated p50/p90/p99
  /// (Histogram::quantileMicros) instead of the bucket vector — the
  /// per-tick payload of the rvsym-timeseries-v1 stream.
  ///   {"counters": {...}, "gauges": {...},
  ///    "hist": {name: {"count":N,"sum_us":S,
  ///             "p50_us":A,"p90_us":B,"p99_us":C}, ...}}
  std::string toSummaryJson() const;

 private:
  mutable std::mutex mu_;  // guards the maps only, never the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rvsym::obs
