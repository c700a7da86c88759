// Structured JSONL event tracing for the path exploration engine.
//
// One trace line per event, one JSON object per line:
//
//   {"ev":"run_start","searcher":"dfs","jobs":4,"trace_version":1}
//   {"ev":"schedule","path":7,"depth":3}
//   {"ev":"fork","path":9,"parent":7,"depth":4}
//   {"ev":"voter","path":7,"verdict":"mismatch","field":"rd_value",...}
//   {"ev":"path_end","path":7,"end":"error","instr":1,"forks":2,...}
//   {"ev":"run_end","paths":412,"t_s":1.07}
//
// Determinism contract: all lifecycle events are emitted by the engine's
// committer thread in commit order, and events produced *during* a
// path's (possibly speculative) execution are buffered in its ExecState
// and flushed at commit — so for a fixed workload the trace is
// byte-identical across --jobs values, except for fields whose name
// starts with "t_" (wall-clock) or "qc_" (query-cache traffic, which
// depends on cross-worker timing). Post-mortem consumers reconstruct
// the exploration tree from the stable path ids: the root path is 0 and
// every fork line names its parent.
//
// Cost model: with a null sink every trace macro is one pointer test.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace rvsym::obs {

inline constexpr int kTraceVersion = 1;

/// One event under construction: a type tag plus ordered fields whose
/// values are already rendered as raw JSON (via the num/str helpers).
struct TraceEvent {
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;

  explicit TraceEvent(std::string t) : type(std::move(t)) {}

  TraceEvent& num(std::string k, std::uint64_t v) {
    fields.emplace_back(std::move(k), std::to_string(v));
    return *this;
  }
  TraceEvent& num(std::string k, double v) {
    JsonWriter w;
    w.value(v);
    fields.emplace_back(std::move(k), w.str());
    return *this;
  }
  TraceEvent& str(std::string k, std::string_view v) {
    fields.emplace_back(std::move(k), "\"" + jsonEscape(v) + "\"");
    return *this;
  }
  TraceEvent& boolean(std::string k, bool v) {
    fields.emplace_back(std::move(k), v ? "true" : "false");
    return *this;
  }

  /// Renders the event as one JSONL line (no trailing newline).
  std::string toJsonl() const;
};

/// Event consumer. Implementations must tolerate concurrent emit()
/// calls (the engine funnels lifecycle events through the committer,
/// but heartbeats and ad-hoc callers may race).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& ev) = 0;
  virtual void flush() {}
};

/// Discards everything — the "runtime disabled" sink. Engines treat a
/// null TraceSink* the same way; this class exists for call sites that
/// want a non-null sink unconditionally.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override {}
};

/// Appends one line per event to a FILE (owned or borrowed).
class JsonlTraceSink final : public TraceSink {
 public:
  /// Opens `path` for writing. ok() reports failure.
  explicit JsonlTraceSink(const std::string& path);
  /// Borrows an open stream (not closed on destruction).
  explicit JsonlTraceSink(std::FILE* borrowed);
  ~JsonlTraceSink() override;

  bool ok() const { return file_ != nullptr; }
  void emit(const TraceEvent& ev) override;
  void flush() override;

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool owned_ = false;
};

/// Collects events in memory (tests, post-mortem assembly).
class BufferTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent& ev) override;
  /// All emitted lines, one JSONL line each (no trailing newline).
  std::vector<std::string> lines() const;
  std::string joined() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

}  // namespace rvsym::obs

// Emits `event_expr` to the sink, if any; the event expression is not
// evaluated when the sink is null (one predicted branch).
#define RVSYM_TRACE(sink_ptr, event_expr)                 \
  do {                                                    \
    if (::rvsym::obs::TraceSink* _rvsym_s = (sink_ptr)) { \
      _rvsym_s->emit(event_expr);                         \
    }                                                     \
  } while (0)
