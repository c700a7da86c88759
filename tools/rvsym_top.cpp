// rvsym-top — live terminal monitor for a running verification or
// mutation campaign.
//
// Point it at the file another rvsym tool is writing:
//
//   rvsym-verify --paths 100000 --timeseries-out run.jsonl &
//   rvsym-top run.jsonl
//
//   rvsym-mutate run --all --status-file status.json &
//   rvsym-top status.json
//
// Both file shapes are auto-detected from the first record: an
// append-only rvsym-timeseries-v1 JSONL stream is tailed incrementally
// (only new bytes are read each refresh), an atomically rewritten
// --status-file object is re-read whole. The view refreshes in place
// (ANSI home+clear per frame): throughput, solver latency percentiles,
// cache hit rates, done-vs-remaining progress with a rate-based ETA.
// Exits when the stream's closing ts_final record arrives, the
// producer's file vanishes, or --once was asked.
//
// When stdout is not a terminal (piped into `tee`, a CI log, `watch`),
// the in-place redraw degrades to one compact status line per refresh —
// no ANSI escapes, grep-friendly. The progress bar also adapts to
// terminals narrower than the default 80 columns.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/ioctl.h>
#include <unistd.h>
#endif

#include "obs/analyze/jsonl.hpp"
#include "obs/analyze/timeseries.hpp"
#include "serve/client.hpp"

namespace {

using namespace rvsym::obs::analyze;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options] FILE\n"
      "       %s [options] --connect EP\n"
      "  FILE               a --timeseries-out JSONL stream or a\n"
      "                     --status-file JSON object\n"
      "  --connect EP       poll a running rvsym-serve daemon instead\n"
      "                     (EP is unix:<path> or tcp:<port>)\n"
      "  --interval S       refresh every S seconds        (default 1)\n"
      "  --once             render one frame and exit\n"
      "  --no-clear         append frames instead of redrawing in place\n"
      "  --line             one compact status line per refresh\n"
      "                     (the default when stdout is not a terminal)\n"
      "  --help\n",
      argv0, argv0);
}

std::string bar(double fraction, std::size_t width) {
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  const auto filled = static_cast<std::size_t>(fraction * width + 0.5);
  std::string out(filled, '#');
  out += std::string(width - filled, '.');
  return out;
}

/// Progress-bar width for the current terminal. The bar line carries
/// ~44 columns of counts and ETA around the bar itself; keep the whole
/// line within the terminal, with a 10-column floor so the bar stays
/// readable even in tiny panes.
std::size_t terminalBarWidth() {
  long cols = 0;
#if defined(TIOCGWINSZ) && !defined(_WIN32)
  winsize ws{};
  if (ioctl(fileno(stdout), TIOCGWINSZ, &ws) == 0 && ws.ws_col > 0)
    cols = ws.ws_col;
#endif
  if (cols <= 0)
    if (const char* env = std::getenv("COLUMNS")) cols = std::atol(env);
  if (cols <= 0) cols = 80;
  if (cols >= 84) return 40;
  return cols > 54 ? static_cast<std::size_t>(cols - 44) : 10;
}

std::string fmtEta(double seconds) {
  if (seconds < 0) return "-";
  char buf[32];
  if (seconds < 90)
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  else if (seconds < 5400)
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60);
  else
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600);
  return buf;
}

/// One compact status line — the non-tty / --line rendering. Everything
/// load-bearing from the frame, greppable, no escapes.
std::string renderLine(const TimeseriesRun& run, bool finished,
                       bool reconnecting) {
  std::string out = "rvsym-top";
  char buf[192];
  if (run.samples.empty())
    return out + (reconnecting ? ": [reconnecting]"
                               : ": waiting for samples...");
  const TimeseriesSample& s = run.samples.back();
  std::snprintf(buf, sizeof buf, " %s t=%.1fs",
                run.header.kind.empty() ? "?" : run.header.kind.c_str(),
                s.t_s);
  out += buf;
  const std::uint64_t done = s.done();
  std::uint64_t total = s.total();
  if (total == 0) total = run.header.total_work;
  if (total != 0) {
    const double frac = static_cast<double>(done) / static_cast<double>(total);
    const double rate = s.t_s > 0 ? static_cast<double>(done) / s.t_s : 0;
    const double eta = rate > 0 && total > done
                           ? static_cast<double>(total - done) / rate
                           : (total > done ? -1 : 0);
    std::snprintf(buf, sizeof buf, " %llu/%llu (%.1f%%) eta %s",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total), 100.0 * frac,
                  fmtEta(eta).c_str());
  } else {
    std::snprintf(buf, sizeof buf, " %llu done",
                  static_cast<unsigned long long>(done));
  }
  out += buf;
  if (s.has_campaign) {
    std::snprintf(buf, sizeof buf, " killed=%llu survived=%llu",
                  static_cast<unsigned long long>(s.mutants_killed),
                  static_cast<unsigned long long>(s.mutants_survived));
    out += buf;
  }
  if (s.has_solver && s.solver_solves != 0) {
    std::snprintf(buf, sizeof buf, " solver=%.0fqps p50=%lluus", s.solver_qps,
                  static_cast<unsigned long long>(s.p50_us));
    out += buf;
  }
  if (!s.extra.empty()) {
    out += ' ';
    out += s.extra;
  }
  if (finished) out += " [finished]";
  if (reconnecting) out += " [reconnecting]";
  return out;
}

/// One rendered frame from everything parsed so far.
std::string renderFrame(const TimeseriesRun& run, bool finished,
                        std::size_t bar_width, bool reconnecting) {
  std::string out;
  char buf[256];
  const auto add = [&](const char* line) { out += line; out += '\n'; };

  if (run.samples.empty()) {
    add(reconnecting ? "rvsym-top: [reconnecting]"
                     : "rvsym-top: waiting for samples...");
    return out;
  }
  const TimeseriesSample& s = run.samples.back();

  const char* status = reconnecting ? "  [reconnecting]"
                       : finished   ? "  [finished]"
                                    : "";
  std::snprintf(buf, sizeof buf, "rvsym-top — %s  t=%.1fs  sample #%llu%s",
                run.header.kind.empty() ? "?" : run.header.kind.c_str(),
                s.t_s, static_cast<unsigned long long>(s.seq), status);
  add(buf);

  // --- Progress + ETA ----------------------------------------------------
  const std::uint64_t done = s.done();
  std::uint64_t total = s.total();
  if (total == 0) total = run.header.total_work;
  if (total != 0) {
    const double frac =
        static_cast<double>(done) / static_cast<double>(total);
    const double rate = s.t_s > 0 ? static_cast<double>(done) / s.t_s : 0;
    const double eta =
        rate > 0 && total > done
            ? static_cast<double>(total - done) / rate
            : (total > done ? -1 : 0);
    std::snprintf(buf, sizeof buf, "  [%s] %llu/%llu (%.1f%%)  eta %s",
                  bar(frac, bar_width).c_str(),
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total), 100.0 * frac,
                  fmtEta(eta).c_str());
    add(buf);
  } else {
    std::snprintf(buf, sizeof buf, "  %llu done (open-ended)",
                  static_cast<unsigned long long>(done));
    add(buf);
  }

  if (s.has_paths) {
    std::snprintf(buf, sizeof buf,
                  "  paths  %llu committed: %llu ok, %llu err, %llu partial"
                  "  worklist %llu  instr %llu",
                  static_cast<unsigned long long>(s.paths_done),
                  static_cast<unsigned long long>(s.paths_completed),
                  static_cast<unsigned long long>(s.paths_errors),
                  static_cast<unsigned long long>(s.paths_partial),
                  static_cast<unsigned long long>(s.worklist),
                  static_cast<unsigned long long>(s.instr));
    add(buf);
  }
  if (s.has_campaign) {
    std::snprintf(buf, sizeof buf,
                  "  mutants %llu/%llu judged: %llu killed, %llu survived, "
                  "%llu equivalent",
                  static_cast<unsigned long long>(s.mutants_judged),
                  static_cast<unsigned long long>(s.mutants_total),
                  static_cast<unsigned long long>(s.mutants_killed),
                  static_cast<unsigned long long>(s.mutants_survived),
                  static_cast<unsigned long long>(s.mutants_equivalent));
    add(buf);
  }
  const std::uint64_t no_solve = s.answered_exact + s.answered_cexm +
                                 s.answered_cexc + s.answered_rw;
  // A registry with no solver traffic (e.g. the bench suite sampler)
  // still reports has_solver; keep the frame to the active sections.
  if (s.has_solver && no_solve + s.solver_solves != 0) {
    std::snprintf(buf, sizeof buf,
                  "  solver %.0f qps  p50/p90/p99 %llu/%llu/%llu us  "
                  "%llu solves  %llu slow",
                  s.solver_qps, static_cast<unsigned long long>(s.p50_us),
                  static_cast<unsigned long long>(s.p90_us),
                  static_cast<unsigned long long>(s.p99_us),
                  static_cast<unsigned long long>(s.solver_solves),
                  static_cast<unsigned long long>(s.slow));
    add(buf);
    const std::uint64_t checks = no_solve + s.solver_solves;
    if (checks != 0) {
      std::snprintf(
          buf, sizeof buf,
          "  cache  %.0f%% answered without solve "
          "(exact %llu, cexm %llu, cexc %llu, rw %llu; sliced %llu)",
          100.0 * static_cast<double>(no_solve) /
              static_cast<double>(checks),
          static_cast<unsigned long long>(s.answered_exact),
          static_cast<unsigned long long>(s.answered_cexm),
          static_cast<unsigned long long>(s.answered_cexc),
          static_cast<unsigned long long>(s.answered_rw),
          static_cast<unsigned long long>(s.answered_sliced));
      add(buf);
    }
    if (s.qcache_hits + s.qcache_misses != 0) {
      std::snprintf(buf, sizeof buf, "  qcache %llu hits / %llu misses",
                    static_cast<unsigned long long>(s.qcache_hits),
                    static_cast<unsigned long long>(s.qcache_misses));
      add(buf);
    }
  }
  if (!s.extra.empty()) {
    std::snprintf(buf, sizeof buf, "  %s", s.extra.c_str());
    add(buf);
  }
  return out;
}

/// Incremental tail state over a growing JSONL stream. The decoder
/// buffers a trailing partial line across polls; finish() is never
/// called — on a live stream an unterminated line is "not written
/// yet", not truncated.
struct Tail {
  std::string path;
  std::streamoff offset = 0;
  JsonlDecoder decoder;

  /// Reads any new complete lines into `run`. False when the file
  /// cannot be opened (producer gone / not created yet).
  bool poll(TimeseriesRun& run) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < offset) {
      // Truncated — the producer restarted; start over.
      offset = 0;
      decoder.reset();
      run = TimeseriesRun{};
      run.path = path;
    }
    if (size == offset) return true;
    in.seekg(offset);
    std::string chunk(static_cast<std::size_t>(size - offset), '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    offset = size;
    decoder.feed(chunk, [&](std::string_view line, std::size_t, bool) {
      parseTimeseriesRecord(line, run);
    });
    return true;
  }
};

/// Daemon mode: ask a running rvsym-serve for one status record. The
/// reply is byte-compatible with a --status-file document, so it flows
/// through the same parser and renderers as the file modes.
bool pollDaemon(const rvsym::serve::Endpoint& ep, TimeseriesRun& run) {
  const auto reply =
      rvsym::serve::requestOnce(ep, "{\"cmd\":\"status_record\"}");
  if (!reply) return false;
  TimeseriesRun fresh;
  fresh.path = ep.spec();
  if (!parseTimeseriesRecord(*reply, fresh) || fresh.samples.empty())
    return true;
  run.header = fresh.header;
  run.samples = std::move(fresh.samples);
  return true;
}

/// Status-file mode: re-read the whole (atomically rewritten) object.
bool pollStatus(const std::string& path, TimeseriesRun& run) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  TimeseriesRun fresh;
  fresh.path = path;
  // A status file is one record; a half-written legacy (non-atomic)
  // file parses as an error and keeps the previous frame.
  if (!parseTimeseriesRecord(text, fresh) || fresh.samples.empty())
    return true;
  run.header = fresh.header;
  run.samples = std::move(fresh.samples);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  double interval = 1.0;
  bool once = false;
  bool clear = true;
#ifndef _WIN32
  // Piped output gets the compact one-line-per-refresh rendering by
  // default; --no-clear still forces full appended frames.
  bool line_mode = isatty(fileno(stdout)) == 0;
#else
  bool line_mode = false;
#endif

  std::string connect;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) interval = std::atof(argv[++i]);
    else if (arg == "--connect" && i + 1 < argc) connect = argv[++i];
    else if (arg == "--once") once = true;
    else if (arg == "--no-clear") { clear = false; line_mode = false; }
    else if (arg == "--line") line_mode = true;
    else if (arg == "--help") { usage(argv[0]); return 0; }
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (file.empty()) file = arg;
    else {
      std::fprintf(stderr, "extra argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (file.empty() == connect.empty()) {  // exactly one source
    usage(argv[0]);
    return 2;
  }
  if (interval <= 0) interval = 1.0;

  rvsym::serve::Endpoint ep;
  if (!connect.empty()) {
    std::string err;
    const auto parsed = rvsym::serve::parseEndpoint(connect, &err);
    if (!parsed) {
      std::fprintf(stderr, "rvsym-top: %s\n", err.c_str());
      return 2;
    }
    ep = *parsed;
  }

  // Mode detection: the first record of a stream is ts_header, a status
  // file is one "status" object. Until the file exists, keep probing.
  bool status_mode = false;
  if (connect.empty()) {
    std::ifstream in(file, std::ios::binary);
    std::string first;
    if (in && std::getline(in, first))
      status_mode = first.find("\"ev\":\"status\"") != std::string::npos;
  }

  TimeseriesRun run;
  run.path = connect.empty() ? file : ep.spec();
  Tail tail;
  tail.path = file;

  int missing_polls = 0;
  // Daemon mode never gives up on a dead endpoint: a campaign server
  // restart (crash, upgrade, kill -9 + resume) is routine, so the
  // monitor renders [reconnecting] and retries with capped exponential
  // backoff instead of exiting like the file modes do.
  unsigned backoff_exp = 0;
  constexpr double kMaxBackoffS = 30.0;
  for (;;) {
    const bool present = !connect.empty()
                             ? pollDaemon(ep, run)
                             : status_mode ? pollStatus(file, run)
                                           : tail.poll(run);
    if (!present && connect.empty() && ++missing_polls > 3 &&
        !run.samples.empty()) {
      std::fprintf(stderr, "rvsym-top: %s disappeared\n", file.c_str());
      return 1;
    }
    const bool reconnecting = !present && !connect.empty();
    if (present) backoff_exp = 0;
    const bool finished = run.final_record.has_value();

    if (line_mode) {
      std::fputs((renderLine(run, finished, reconnecting) + "\n").c_str(),
                 stdout);
    } else {
      const std::string frame =
          renderFrame(run, finished, terminalBarWidth(), reconnecting);
      if (clear && !once) std::fputs("\x1b[H\x1b[2J", stdout);
      std::fputs(frame.c_str(), stdout);
      if (!clear && !once) std::fputs("\n", stdout);
    }
    std::fflush(stdout);

    if (once || finished) return 0;
    double sleep_s = interval;
    if (reconnecting) {
      sleep_s = interval * static_cast<double>(1u << backoff_exp);
      if (sleep_s < kMaxBackoffS && backoff_exp < 16) ++backoff_exp;
      if (sleep_s > kMaxBackoffS) sleep_s = kMaxBackoffS;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
  }
}
