// Prometheus text exposition (format version 0.0.4) of the fleet
// aggregate — what `rvsym-serve scrape`, the daemon's `metrics` request
// and the `--metrics-listen` HTTP endpoint all serve.
//
// Rendering rules (DESIGN.md §13):
//  * instrument names mangle dots to underscores under an "rvsym_"
//    prefix: counter "qcache.hits" -> "rvsym_qcache_hits_total";
//  * counters render from the merged fleet view as *_total;
//  * gauges render per source with a {worker="..."} label (the merge
//    semantic is last-write per worker — collapsing them would hide
//    exactly what a scraper wants to see);
//  * histograms render cumulatively with power-of-2 `le` bounds, a
//    final +Inf bucket and _sum/_count in microseconds;
//  * per-job series (units done/total, state) carry {job=...} labels
//    with full label escaping.
//
// The output is deterministic: every map is ordered, and no
// time-derived value is rendered, so two scrapes of an idle daemon are
// byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/fleet/aggregate.hpp"

namespace rvsym::obs::fleet {

/// One job's exposition-facing state.
struct JobSeries {
  std::string id;
  std::string kind;   ///< "mutate" | "verify" | "replay"
  std::string state;  ///< "queued" | "running" | "done" | "failed" | ...
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
};

struct ExpositionInput {
  /// Merged fleet view (FleetAggregator::merged(), daemon included).
  RegistrySnapshot fleet;
  /// Per-source snapshots for worker-labeled gauge series.
  std::map<std::string, RegistrySnapshot> workers;
  std::vector<JobSeries> jobs;
};

/// Escapes a Prometheus label value: backslash, double quote and
/// newline (the three bytes the text format cannot carry verbatim).
std::string promEscapeLabel(std::string_view s);

/// "solver.check_us" -> "rvsym_solver_check_us": every byte outside
/// [a-zA-Z0-9_] becomes '_', under the rvsym_ prefix.
std::string promMetricName(std::string_view name);

std::string renderExposition(const ExpositionInput& in);

}  // namespace rvsym::obs::fleet
