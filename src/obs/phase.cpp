#include "obs/phase.hpp"

#include <cstdio>
#include <unordered_map>

#include "obs/trace_events.hpp"

namespace rvsym::obs {

std::vector<PhaseProfiler::Frame>& PhaseProfiler::threadStack() {
  // Per-(thread, profiler) stacks: tests run several profilers in one
  // process, and worker threads outlive individual runs.
  thread_local std::unordered_map<const PhaseProfiler*,
                                  std::vector<Frame>> stacks;
  return stacks[this];
}

void PhaseProfiler::enter(const char* name) {
  std::vector<Frame>& stack = threadStack();
  stack.push_back(Frame{name, std::chrono::steady_clock::now(), 0});
}

void PhaseProfiler::exit() {
  std::vector<Frame>& stack = threadStack();
  if (stack.empty()) return;  // unbalanced exit: ignore
  const Frame frame = stack.back();
  stack.pop_back();
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - frame.start)
          .count());
  const std::uint64_t self =
      elapsed >= frame.child_us ? elapsed - frame.child_us : 0;
  if (!stack.empty()) stack.back().child_us += elapsed;

  if (spans_ != nullptr) {
    Span sp;
    sp.name = frame.name;
    sp.cat = "phase";
    sp.tid = spans_->threadTrack();
    sp.ts_us = spans_->sinceEpochUs(frame.start);
    sp.dur_us = elapsed;
    spans_->add(std::move(sp));
  }

  std::string key;
  for (const Frame& f : stack) {
    key += f.name;
    key += ';';
  }
  key += frame.name;

  const std::lock_guard<std::mutex> lk(mu_);
  Agg& agg = stacks_[key];
  ++agg.count;
  agg.self_us += self;
}

std::string PhaseProfiler::folded() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[32];
  for (const auto& [stack, agg] : stacks_) {
    out += stack;
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(agg.self_us));
    out += buf;
  }
  return out;
}

std::string PhaseProfiler::canonicalizeFolded(std::string_view text) {
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line = text.substr(
        start, nl == std::string_view::npos ? text.size() - start : nl - start);
    start = nl == std::string_view::npos ? text.size() : nl + 1;
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    out += line.substr(0, sp == std::string_view::npos ? line.size() : sp);
    out += " 0\n";
  }
  return out;
}

std::uint64_t PhaseProfiler::distinctStacks() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return stacks_.size();
}

}  // namespace rvsym::obs
