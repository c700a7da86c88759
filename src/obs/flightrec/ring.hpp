// Flight recorder — lock-free per-thread ring buffers of recent
// structured events (path commits, solver query begin/end, phase
// transitions, mutant judgements) that cost ~nothing while the run is
// healthy and are dumped in full when something goes wrong (crash,
// stall, SIGUSR1 — see crashdump.hpp).
//
// Design (DESIGN.md §12): each registered thread owns a power-of-2 ring
// of seqlock-style slots in which *every* field is a relaxed atomic and
// the slot's event index is the publication word (release-stored last,
// 0 = never written). A reader — including one running inside a fatal
// signal handler on another thread — snapshots a ring without stopping
// the writer: it reads the reservation counter, walks the window of
// live indices, and drops any slot whose stored index does not match
// the expected one (the writer lapped it mid-read). Torn slots are
// skipped, never invented. No locks, no allocation, no syscalls on the
// emit path; when no recorder is installed an emit is one relaxed load
// and a branch.
//
// Rings also carry the watchdog's stall-detection state (busy_since /
// last_event microsecond stamps) and one seqlock'd "in-flight" buffer
// per thread into which the solver serializes the query it is about to
// solve (rvsym-query-v1 text), so a crash bundle can contain the exact
// query that was on the SAT solver when the process died.
//
// Everything here compiles out under -DRVSYM_DISABLE_TRACING
// (RVSYM_OBS_NO_TRACING): the free-function emit API becomes empty
// inlines and installGlobal() refuses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#ifndef _WIN32
#include <pthread.h>
#endif

namespace rvsym::obs::flightrec {

/// What happened. The a/b/c payload words are kind-specific (values
/// documented at the emission sites; renderers in obs/analyze know the
/// shapes). `tag` is a short fixed-width label (phase name, mutant id
/// prefix, check kind).
enum class EventKind : std::uint8_t {
  None = 0,
  PathCommit,     ///< a=path id, b=end kind, c=instructions
  SolverBegin,    ///< a=hash.lo, b=hash.hi, c=constraint count
  SolverEnd,      ///< a=hash.lo, b=verdict, c=solve µs
  Phase,          ///< tag=phase name, a=depth
  MutantBegin,    ///< a=mutant enumeration index, tag=id prefix
  MutantVerdict,  ///< a=mutant enumeration index, b=verdict, tag=id prefix
  Mark,           ///< free-form marker: tag + a/b/c
};

/// Stable wire name ("path_commit", "solver_begin", ...). Async-signal
/// safe (returns pointers to string literals).
const char* eventKindName(EventKind k);

/// One decoded event, as handed to readers (plain data, no atomics).
struct Event {
  std::uint64_t index = 0;  ///< per-thread sequence number (0-based)
  std::uint64_t t_us = 0;   ///< microseconds since recorder start
  std::uint64_t a = 0, b = 0, c = 0;
  EventKind kind = EventKind::None;
  char tag[17] = {0};  ///< NUL-terminated
};

namespace detail {

/// One ring slot. All fields atomic so concurrent write/read is defined
/// behaviour (TSan-clean); `index` stores sequence+1 (0 = empty) and is
/// release-published after the payload.
struct Slot {
  std::atomic<std::uint64_t> index{0};
  std::atomic<std::uint64_t> t_us{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint64_t> c{0};
  std::atomic<std::uint64_t> tag_lo{0};
  std::atomic<std::uint64_t> tag_hi{0};
  std::atomic<std::uint8_t> kind{0};
};

}  // namespace detail

/// Seqlock'd fixed buffer holding the serialized in-flight solver query
/// of one thread. Writer is the owning thread; readers may run in a
/// signal handler on any thread.
class InFlightSlot {
 public:
  explicit InFlightSlot(std::size_t capacity);

  std::size_t capacity() const { return buf_.size(); }

  /// Publishes a new in-flight payload (truncated to capacity).
  void set(const char* data, std::size_t len, std::uint64_t hash_lo,
           std::uint64_t hash_hi);
  /// Marks nothing in flight (len 0).
  void clear();

  /// Copies the current payload into `out` (up to `max` bytes). Returns
  /// the number of bytes copied; 0 means nothing in flight or the
  /// writer was mid-update (torn reads are dropped, not returned).
  /// Async-signal safe.
  std::size_t read(char* out, std::size_t max, std::uint64_t* hash_lo,
                   std::uint64_t* hash_hi) const;

  /// Racy peek at the current payload length (0 = nothing in flight).
  std::uint32_t pendingBytes() const {
    return len_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> version_{0};  ///< seqlock; odd = writing
  std::atomic<std::uint32_t> len_{0};
  std::atomic<std::uint64_t> hash_lo_{0};
  std::atomic<std::uint64_t> hash_hi_{0};
  std::vector<std::atomic<char>> buf_;
};

/// One thread's ring plus its watchdog/identity state.
class ThreadRing {
 public:
  static constexpr std::size_t kTagBytes = 16;
  static constexpr std::size_t kNameBytes = 32;

  ThreadRing(std::size_t capacity_pow2, std::size_t inflight_bytes);

  /// Appends one event. Lock-free, allocation-free, wait-free.
  void emit(EventKind kind, std::uint64_t a, std::uint64_t b,
            std::uint64_t c, const char* tag, std::uint64_t now_us);

  /// Number of events ever emitted on this ring.
  std::uint64_t seq() const { return seq_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return slots_.size(); }

  /// Snapshots the newest `max` events of the live window (oldest first)
  /// into `out`: the contiguous run of indices that ends at the newest
  /// published event and stops before the first slot the writer lapped
  /// mid-read. Returns the count. Safe from a signal handler and
  /// concurrently with emit().
  std::size_t snapshot(Event* out, std::size_t max) const;

  /// Watchdog bookkeeping: a thread is a stall candidate while busy and
  /// neither stamp has advanced for the stall timeout. Brackets nest (a
  /// campaign worker judging a mutant runs the engine's per-path
  /// brackets inside its own); only the outermost pair moves the stamp.
  /// Single-writer: only the owning thread calls these.
  void busyBegin(std::uint64_t now_us) {
    const std::uint32_t d = busy_depth_.load(std::memory_order_relaxed);
    busy_depth_.store(d + 1, std::memory_order_relaxed);
    if (d == 0) busy_since_us.store(now_us, std::memory_order_release);
  }
  void busyEnd() {
    const std::uint32_t d = busy_depth_.load(std::memory_order_relaxed);
    if (d == 0) return;  // unbalanced end: ignore
    busy_depth_.store(d - 1, std::memory_order_relaxed);
    if (d == 1) busy_since_us.store(0, std::memory_order_release);
  }
  /// Clears busy state entirely regardless of depth (slot reclaim).
  void busyReset() {
    busy_depth_.store(0, std::memory_order_relaxed);
    busy_since_us.store(0, std::memory_order_release);
  }

  InFlightSlot& inflight() { return inflight_; }
  const InFlightSlot& inflight() const { return inflight_; }

  /// Thread identity. `name` is written once at registration (before
  /// in_use is published) and read by dumpers.
  char name[kNameBytes] = {0};
#ifndef _WIN32
  pthread_t pthread_id{};
#endif
  std::atomic<bool> has_thread_id{false};
  std::atomic<bool> in_use{false};

  std::atomic<std::uint64_t> busy_since_us{0};
  std::atomic<std::uint64_t> last_event_us{0};

 private:
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint32_t> busy_depth_{0};
  std::size_t mask_;
  std::vector<detail::Slot> slots_;
  InFlightSlot inflight_;
};

/// The recorder: a fixed table of thread rings, all preallocated at
/// construction so nothing on the emit or dump path ever allocates.
/// Normally used through the process-global instance (installGlobal /
/// global); tests may instantiate private recorders directly.
class FlightRecorder {
 public:
  struct Options {
    std::size_t ring_capacity = 512;  ///< events per thread (rounded to 2^k)
    std::size_t max_threads = 64;
    std::size_t inflight_bytes = 32 * 1024;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(const Options& opts);

  /// Claims a free ring slot for the calling thread. Returns nullptr if
  /// the table is full. The name is truncated to kNameBytes-1.
  ThreadRing* registerThread(const char* name);
  /// Returns a worker's slot to the pool (ring contents are discarded
  /// for reuse by the next registrant).
  void releaseThread(ThreadRing* ring);

  std::size_t maxThreads() const { return rings_.size(); }
  ThreadRing* ringAt(std::size_t i) { return rings_[i].get(); }
  const ThreadRing* ringAt(std::size_t i) const { return rings_[i].get(); }
  /// Slot index of a ring (for bundle labels).
  std::size_t slotOf(const ThreadRing* ring) const;

  /// Microseconds since the recorder was constructed (CLOCK_MONOTONIC;
  /// async-signal safe).
  std::uint64_t nowMicros() const;

  const Options& options() const { return opts_; }

  /// Process-global recorder. installGlobal is idempotent (the first
  /// options win) and the instance is intentionally leaked so signal
  /// handlers can use it during process teardown. Returns nullptr under
  /// RVSYM_OBS_NO_TRACING.
  static FlightRecorder* installGlobal(const Options& opts);
  static FlightRecorder* installGlobal() { return installGlobal(Options()); }
  static FlightRecorder* global();

 private:
  Options opts_;
  std::uint64_t epoch_ns_ = 0;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

#ifndef RVSYM_OBS_NO_TRACING

/// Registers the calling thread in the global recorder under `name`
/// (no-op if no recorder is installed or the table is full). Subsequent
/// emits from this thread land on its ring.
void setThreadName(const char* name);
/// Releases the calling thread's global-ring slot (for short-lived
/// worker threads, so campaigns do not exhaust the table).
void releaseCurrentThread();
/// The calling thread's ring in the global recorder; auto-registers an
/// anonymous ring on first use. nullptr when no recorder is installed
/// or the table is full.
ThreadRing* currentRing();

/// Hot-path emit into the calling thread's global ring. When no global
/// recorder is installed this is one relaxed load and a branch.
void emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
          std::uint64_t c = 0, const char* tag = nullptr);

/// Stall-watchdog brackets around a unit of work (one path execution,
/// one mutant judgement).
void busyBegin();
void busyEnd();

/// Publishes / clears the calling thread's in-flight solver query.
void inflightSet(const char* data, std::size_t len, std::uint64_t hash_lo,
                 std::uint64_t hash_hi);
void inflightClear();

/// RAII pair for worker threads: register on entry, release on exit.
class ScopedThread {
 public:
  explicit ScopedThread(const char* name) { setThreadName(name); }
  ~ScopedThread() { releaseCurrentThread(); }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;
};

#else  // RVSYM_OBS_NO_TRACING — the whole emit API compiles away.

inline void setThreadName(const char*) {}
inline void releaseCurrentThread() {}
inline ThreadRing* currentRing() { return nullptr; }
inline void emit(EventKind, std::uint64_t = 0, std::uint64_t = 0,
                 std::uint64_t = 0, const char* = nullptr) {}
inline void busyBegin() {}
inline void busyEnd() {}
inline void inflightSet(const char*, std::size_t, std::uint64_t,
                        std::uint64_t) {}
inline void inflightClear() {}

class ScopedThread {
 public:
  explicit ScopedThread(const char*) {}
};

#endif  // RVSYM_OBS_NO_TRACING

}  // namespace rvsym::obs::flightrec
