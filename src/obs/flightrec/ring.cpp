#include "obs/flightrec/ring.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>

namespace rvsym::obs::flightrec {
namespace {

std::uint64_t monotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::size_t roundPow2(std::size_t v, std::size_t min) {
  std::size_t p = min;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* eventKindName(EventKind k) {
  switch (k) {
    case EventKind::None: return "none";
    case EventKind::PathCommit: return "path_commit";
    case EventKind::SolverBegin: return "solver_begin";
    case EventKind::SolverEnd: return "solver_end";
    case EventKind::Phase: return "phase";
    case EventKind::MutantBegin: return "mutant_begin";
    case EventKind::MutantVerdict: return "mutant_verdict";
    case EventKind::Mark: return "mark";
  }
  return "?";
}

// --- InFlightSlot ----------------------------------------------------------

InFlightSlot::InFlightSlot(std::size_t capacity)
    : buf_(capacity ? capacity : 1) {}

void InFlightSlot::set(const char* data, std::size_t len,
                       std::uint64_t hash_lo, std::uint64_t hash_hi) {
  if (len > buf_.size()) len = buf_.size();
  version_.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
  for (std::size_t i = 0; i < len; ++i)
    buf_[i].store(data[i], std::memory_order_relaxed);
  len_.store(static_cast<std::uint32_t>(len), std::memory_order_relaxed);
  hash_lo_.store(hash_lo, std::memory_order_relaxed);
  hash_hi_.store(hash_hi, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_release);  // even: published
}

void InFlightSlot::clear() {
  version_.fetch_add(1, std::memory_order_acq_rel);
  len_.store(0, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_release);
}

std::size_t InFlightSlot::read(char* out, std::size_t max,
                               std::uint64_t* hash_lo,
                               std::uint64_t* hash_hi) const {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::uint32_t v1 = version_.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // writer mid-update
    std::size_t len = len_.load(std::memory_order_relaxed);
    if (len == 0) return 0;
    if (len > buf_.size()) len = buf_.size();
    if (len > max) len = max;
    for (std::size_t i = 0; i < len; ++i)
      out[i] = buf_[i].load(std::memory_order_relaxed);
    const std::uint64_t lo = hash_lo_.load(std::memory_order_relaxed);
    const std::uint64_t hi = hash_hi_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (version_.load(std::memory_order_relaxed) != v1) continue;  // torn
    if (hash_lo) *hash_lo = lo;
    if (hash_hi) *hash_hi = hi;
    return len;
  }
  return 0;
}

// --- ThreadRing ------------------------------------------------------------

ThreadRing::ThreadRing(std::size_t capacity_pow2, std::size_t inflight_bytes)
    : mask_(roundPow2(capacity_pow2, 8) - 1),
      slots_(roundPow2(capacity_pow2, 8)),
      inflight_(inflight_bytes) {}

void ThreadRing::emit(EventKind kind, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c, const char* tag,
                      std::uint64_t now_us) {
  const std::uint64_t s = seq_.fetch_add(1, std::memory_order_relaxed);
  detail::Slot& sl = slots_[s & mask_];
  // Invalidate first so a concurrent reader never pairs the new payload
  // with the previous lap's index. The fence keeps the relaxed payload
  // stores below from becoming visible before the invalidation (the
  // seqlock writer's store-store barrier; free on x86-TSO, not on ARM).
  sl.index.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  sl.t_us.store(now_us, std::memory_order_relaxed);
  sl.a.store(a, std::memory_order_relaxed);
  sl.b.store(b, std::memory_order_relaxed);
  sl.c.store(c, std::memory_order_relaxed);
  std::uint64_t lo = 0, hi = 0;
  if (tag && tag[0]) {
    char t[kTagBytes] = {0};
    std::size_t n = 0;
    while (n < kTagBytes && tag[n]) ++n;
    std::memcpy(t, tag, n);
    std::memcpy(&lo, t, 8);
    std::memcpy(&hi, t + 8, 8);
  }
  sl.tag_lo.store(lo, std::memory_order_relaxed);
  sl.tag_hi.store(hi, std::memory_order_relaxed);
  sl.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  sl.index.store(s + 1, std::memory_order_release);
  last_event_us.store(now_us, std::memory_order_release);
}

std::size_t ThreadRing::snapshot(Event* out, std::size_t max) const {
  // Returns the contiguous run of valid slots that ends at the newest
  // valid one, oldest first. Scanning back from the newest index, slots
  // the writer has claimed but not yet published are skipped; after the
  // first valid slot, the first invalid (lapped or torn) one ends the
  // run, so the result never has a gap in its indices.
  const std::uint64_t end = seq_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = end > cap ? end - cap : 0;
  std::size_t n = 0;
  for (std::uint64_t i = end; i > begin && n < max; --i) {
    const std::uint64_t idx = i - 1;
    const detail::Slot& sl = slots_[idx & mask_];
    bool valid = sl.index.load(std::memory_order_acquire) == idx + 1;
    Event e;
    if (valid) {
      e.index = idx;
      e.t_us = sl.t_us.load(std::memory_order_relaxed);
      e.a = sl.a.load(std::memory_order_relaxed);
      e.b = sl.b.load(std::memory_order_relaxed);
      e.c = sl.c.load(std::memory_order_relaxed);
      e.kind = static_cast<EventKind>(sl.kind.load(std::memory_order_relaxed));
      const std::uint64_t lo = sl.tag_lo.load(std::memory_order_relaxed);
      const std::uint64_t hi = sl.tag_hi.load(std::memory_order_relaxed);
      std::memcpy(e.tag, &lo, 8);
      std::memcpy(e.tag + 8, &hi, 8);
      e.tag[kTagBytes] = '\0';
      std::atomic_thread_fence(std::memory_order_acquire);
      valid = sl.index.load(std::memory_order_relaxed) == idx + 1;  // lapped?
    }
    if (!valid) {
      if (n > 0) break;
      continue;
    }
    out[n++] = e;
  }
  std::reverse(out, out + n);
  return n;
}

// --- FlightRecorder --------------------------------------------------------

FlightRecorder::FlightRecorder(const Options& opts) : opts_(opts) {
  epoch_ns_ = monotonicNanos();
  rings_.reserve(opts_.max_threads);
  for (std::size_t i = 0; i < opts_.max_threads; ++i)
    rings_.push_back(std::make_unique<ThreadRing>(opts_.ring_capacity,
                                                  opts_.inflight_bytes));
}

ThreadRing* FlightRecorder::registerThread(const char* name) {
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    ThreadRing* r = rings_[i].get();
    bool expected = false;
    if (!r->in_use.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel))
      continue;
    // Fresh slot for this thread: discard the previous occupant's tail.
    r->busyReset();
    r->last_event_us.store(0, std::memory_order_relaxed);
    r->inflight().clear();
    if (name && name[0]) {
      std::snprintf(r->name, sizeof r->name, "%s", name);
    } else {
      std::snprintf(r->name, sizeof r->name, "t%zu", i);
    }
#ifndef _WIN32
    r->pthread_id = pthread_self();
    r->has_thread_id.store(true, std::memory_order_release);
#endif
    return r;
  }
  return nullptr;  // table full; callers degrade to not recording
}

void FlightRecorder::releaseThread(ThreadRing* ring) {
  if (!ring) return;
  ring->busyReset();
  ring->inflight().clear();
  ring->has_thread_id.store(false, std::memory_order_release);
  // Ring contents stay readable (a dump right after a worker exits still
  // shows its tail) until the slot is reclaimed by a new registrant.
  ring->in_use.store(false, std::memory_order_release);
}

std::size_t FlightRecorder::slotOf(const ThreadRing* ring) const {
  for (std::size_t i = 0; i < rings_.size(); ++i)
    if (rings_[i].get() == ring) return i;
  return static_cast<std::size_t>(-1);
}

std::uint64_t FlightRecorder::nowMicros() const {
  return (monotonicNanos() - epoch_ns_) / 1000;
}

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

#ifndef RVSYM_OBS_NO_TRACING
struct TlsRef {
  FlightRecorder* owner = nullptr;
  ThreadRing* ring = nullptr;
};
thread_local TlsRef t_ref;
#endif

}  // namespace

FlightRecorder* FlightRecorder::installGlobal(const Options& opts) {
#ifdef RVSYM_OBS_NO_TRACING
  (void)opts;
  return nullptr;
#else
  FlightRecorder* cur = g_recorder.load(std::memory_order_acquire);
  if (cur) return cur;
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  cur = g_recorder.load(std::memory_order_relaxed);
  if (cur) return cur;
  // Leaked on purpose: fatal signal handlers may dump during teardown.
  cur = new FlightRecorder(opts);
  g_recorder.store(cur, std::memory_order_release);
  return cur;
#endif
}

FlightRecorder* FlightRecorder::global() {
  return g_recorder.load(std::memory_order_acquire);
}

#ifndef RVSYM_OBS_NO_TRACING

ThreadRing* currentRing() {
  FlightRecorder* g = FlightRecorder::global();
  if (!g) return nullptr;
  if (t_ref.owner == g) return t_ref.ring;  // ring may be null: table full
  t_ref.owner = g;
  t_ref.ring = g->registerThread(nullptr);
  return t_ref.ring;
}

void setThreadName(const char* name) {
  FlightRecorder* g = FlightRecorder::global();
  if (!g) return;
  if (t_ref.owner == g && t_ref.ring) {
    std::snprintf(t_ref.ring->name, sizeof t_ref.ring->name, "%s",
                  name ? name : "");
    return;
  }
  t_ref.owner = g;
  t_ref.ring = g->registerThread(name);
}

void releaseCurrentThread() {
  if (t_ref.ring && t_ref.owner == FlightRecorder::global())
    t_ref.owner->releaseThread(t_ref.ring);
  t_ref = TlsRef{};
}

void emit(EventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c,
          const char* tag) {
  FlightRecorder* g = g_recorder.load(std::memory_order_relaxed);
  if (!g) return;
  ThreadRing* r = currentRing();
  if (!r) return;
  r->emit(kind, a, b, c, tag, g->nowMicros());
}

void busyBegin() {
  FlightRecorder* g = g_recorder.load(std::memory_order_relaxed);
  if (!g) return;
  if (ThreadRing* r = currentRing()) r->busyBegin(g->nowMicros());
}

void busyEnd() {
  if (!g_recorder.load(std::memory_order_relaxed)) return;
  if (ThreadRing* r = currentRing()) r->busyEnd();
}

void inflightSet(const char* data, std::size_t len, std::uint64_t hash_lo,
                 std::uint64_t hash_hi) {
  if (!g_recorder.load(std::memory_order_relaxed)) return;
  if (ThreadRing* r = currentRing()) r->inflight().set(data, len, hash_lo,
                                                       hash_hi);
}

void inflightClear() {
  if (!g_recorder.load(std::memory_order_relaxed)) return;
  if (ThreadRing* r = currentRing()) r->inflight().clear();
}

#endif  // RVSYM_OBS_NO_TRACING

}  // namespace rvsym::obs::flightrec
