// Cross-process Chrome-trace merging (DESIGN.md §13).
//
// A campaign produces one trace file per process: the daemon's own
// spans plus one file per worker, each written with pid 1 and
// timestamps relative to that process's SpanCollector epoch. The
// merger stitches them into a single Chrome Trace Event document:
//
//  * each input file becomes one pid (files sorted by name, so
//    daemon.trace.json precedes worker-*.trace.json), with a
//    process_name metadata event naming the source;
//  * timestamps shift by (file epoch - earliest epoch). Epochs are
//    steady-clock microseconds recorded in otherData.epoch_us — one
//    CLOCK_MONOTONIC timebase per boot shared by every process, so the
//    shifted tracks align on real concurrency;
//  * tids and thread_name metadata pass through per file (tids are
//    already process-local).
//
// The result renders a whole fleet campaign in one Perfetto view with
// job -> shard -> solver-query span nesting intact per worker track.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace rvsym::obs::fleet {

struct TraceMergeStats {
  std::size_t files = 0;    ///< inputs merged
  std::size_t events = 0;   ///< events written (metadata included)
  std::size_t skipped = 0;  ///< inputs skipped (not a chrome-trace doc)
};

/// Merges the given chrome-trace files (in the given order; pid = index
/// + 1) into `out_path`. Returns nullopt (with *error) when no input
/// could be read or the output cannot be written.
std::optional<TraceMergeStats> mergeChromeTraces(
    const std::vector<std::string>& inputs, const std::string& out_path,
    std::string* error = nullptr);

/// Merges every `*.json` file directly under `dir` (sorted by name,
/// the output file itself excluded) into `out_path`.
std::optional<TraceMergeStats> mergeChromeTraceDir(
    const std::string& dir, const std::string& out_path,
    std::string* error = nullptr);

}  // namespace rvsym::obs::fleet
