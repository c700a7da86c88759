// Fleet-wide metrics aggregation for rvsym-serve (DESIGN.md §13).
//
// Each serve worker periodically serializes its MetricsRegistry (the
// toJson() document) into a metrics_report frame; the daemon parses the
// payload into a RegistrySnapshot and feeds it to a FleetAggregator,
// which keeps the *latest* snapshot per worker id and merges across
// sources on demand:
//
//  * counters  — summed. Worker ids are unique across respawns ("w0",
//    "w1", ... from a monotonic sequence) and a worker's counters are
//    monotone over its lifetime, so summing the last-seen snapshot of
//    every id ever reported yields fleet lifetime totals — a dead
//    worker's contribution is never lost or double-counted.
//  * histograms — bucket-merged via obs::Histogram::merge (power-of-2
//    buckets are identical across processes, so the merge is exact at
//    bucket resolution).
//  * gauges — last-write per worker: a gauge is an instantaneous
//    per-process reading, so the merged view sums the latest per-worker
//    values and keeps the max of the per-worker maxima.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/analyze/json_reader.hpp"
#include "obs/metrics.hpp"

namespace rvsym::obs::fleet {

struct HistogramSnapshot {
  std::uint64_t buckets[Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

/// One registry frozen at a point in time — the wire form of a worker's
/// metrics and the result type of a fleet merge.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Parses a MetricsRegistry::toJson() document (the payload of a
  /// metrics_report frame). Returns nullopt when `doc` is not an
  /// object; unknown members and malformed instruments are skipped.
  static std::optional<RegistrySnapshot> fromJson(const analyze::JsonValue& doc);
  static std::optional<RegistrySnapshot> fromJsonText(std::string_view text);

  /// Snapshot of a live registry (serialize + reparse — the exposition
  /// path is cold, simplicity wins over a second iteration API).
  static RegistrySnapshot of(const MetricsRegistry& reg);
};

/// Rebuilds a live Histogram from its snapshot, so snapshot consumers
/// (quantile summaries, the merge below) share the one bucket-math
/// implementation in obs::Histogram.
std::unique_ptr<Histogram> toHistogram(const HistogramSnapshot& h);
HistogramSnapshot toSnapshot(const Histogram& h);

/// Latest-snapshot-per-source store + merge (see file comment).
class FleetAggregator {
 public:
  /// Replaces the stored snapshot for `source` (a worker id, or
  /// "daemon" for the daemon's own registry).
  void update(const std::string& source, RegistrySnapshot snap);

  const std::map<std::string, RegistrySnapshot>& sources() const {
    return sources_;
  }

  /// Counters summed, histograms bucket-merged (Histogram::merge),
  /// gauge values summed / maxima maxed across all sources ever seen.
  RegistrySnapshot merged() const;

 private:
  std::map<std::string, RegistrySnapshot> sources_;
};

}  // namespace rvsym::obs::fleet
