#include "harness/harness.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include <atomic>

#include "obs/analyze/json_reader.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace rvsym::bench {

namespace fs = std::filesystem;
using obs::analyze::JsonValue;
using obs::analyze::parseJson;

const std::vector<BenchSpec>& allBenches() {
  // Smoke membership: everything that finishes in seconds (measured:
  // fig1_flow ~0.5s, searchers/slicing ~1s, table2 ~1.6s, micro ~2s at
  // the reduced min_time, scaling ~2.4s, ablation_limit ~3s,
  // solver_stack ~4s across its six layer configurations, table1
  // ~12s). Only fuzz_vs_symex is full-suite-only (~45s): its random
  // baseline deliberately exhausts its test budget on the corner-case
  // faults, which is the point of the bench but not of a CI gate.
  static const std::vector<BenchSpec> kBenches = {
      {"table1", "bench_table1", {}, {}, true, false},
      {"table2", "bench_table2", {}, {}, true, false},
      {"fig1_flow", "bench_fig1_flow", {}, {}, true, false},
      {"ablation_slicing", "bench_ablation_slicing", {}, {}, true, false},
      {"ablation_limit", "bench_ablation_limit", {}, {}, true, false},
      {"solver_stack", "bench_solver_stack", {}, {}, true, false},
      {"micro",
       "bench_micro",
       {"--benchmark_out_format=json"},
       {"--benchmark_out_format=json", "--benchmark_min_time=0.05"},
       true,
       true},
      {"fuzz_vs_symex", "bench_fuzz_vs_symex", {}, {}, false, false},
      {"searchers", "bench_searchers", {}, {}, true, false},
      {"scaling", "bench_scaling", {}, {}, true, false},
  };
  return kBenches;
}

std::uint64_t medianU64(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

std::string envJson() {
  obs::JsonWriter w;
  w.beginObject();
#if defined(__linux__)
  w.field("os", "linux");
#elif defined(__APPLE__)
  w.field("os", "darwin");
#else
  w.field("os", "unknown");
#endif
#if defined(__x86_64__)
  w.field("arch", "x86_64");
#elif defined(__aarch64__)
  w.field("arch", "aarch64");
#else
  w.field("arch", "unknown");
#endif
#if defined(__clang__)
  w.field("compiler", "clang " + std::to_string(__clang_major__) + "." +
                          std::to_string(__clang_minor__));
#elif defined(__GNUC__)
  w.field("compiler", "gcc " + std::to_string(__GNUC__) + "." +
                          std::to_string(__GNUC_MINOR__));
#else
  w.field("compiler", "unknown");
#endif
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  w.field("assertions", false);
#else
  w.field("assertions", true);
#endif
  w.endObject();
  return w.str();
}

namespace {

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs one command line; returns the exit code (or -1 when the child
/// did not exit normally) and the wall-clock microseconds.
int runCommand(const std::string& cmd, std::uint64_t& wall_us) {
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

const std::vector<std::string>& suiteArgs(const BenchSpec& spec,
                                          const std::string& suite) {
  return suite == "smoke" ? spec.smoke_args : spec.full_args;
}

}  // namespace

std::string runDocument(const RunOptions& opts,
                        const std::vector<BenchRun>& runs) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "rvsym-bench-run-v1");
  w.field("suite", opts.suite);
  w.field("repeats", static_cast<std::uint64_t>(opts.repeats));
  w.field("warmup", static_cast<std::uint64_t>(opts.warmup));
  w.key("env").rawValue(envJson());
  w.key("benches").beginArray();
  for (const BenchRun& r : runs) {
    w.beginObject();
    w.field("name", r.name);
    w.field("ok", r.ok);
    w.field("wall_median_us", medianU64(r.wall_us));
    w.field("wall_min_us", r.wall_us.empty()
                               ? 0
                               : *std::min_element(r.wall_us.begin(),
                                                   r.wall_us.end()));
    w.field("wall_max_us", r.wall_us.empty()
                               ? 0
                               : *std::max_element(r.wall_us.begin(),
                                                   r.wall_us.end()));
    w.key("wall_us").beginArray();
    for (std::uint64_t us : r.wall_us) w.value(us);
    w.endArray();
    if (!r.report_json.empty())
      w.key("report").rawValue(r.report_json);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

int runSuite(const RunOptions& opts) {
  // Select the benches to run.
  std::vector<const BenchSpec*> selected;
  for (const BenchSpec& spec : allBenches()) {
    if (!opts.only.empty()) {
      if (std::find(opts.only.begin(), opts.only.end(), spec.name) ==
          opts.only.end())
        continue;
    } else if (opts.suite == "smoke" && !spec.smoke) {
      continue;
    }
    selected.push_back(&spec);
  }
  if (!opts.only.empty() && selected.size() != opts.only.size()) {
    for (const std::string& name : opts.only)
      if (std::none_of(selected.begin(), selected.end(),
                       [&](const BenchSpec* s) { return s->name == name; }))
        std::fprintf(stderr, "unknown bench: %s\n", name.c_str());
    return 2;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benches selected (suite=%s)\n",
                 opts.suite.c_str());
    return 2;
  }

  const fs::path work = opts.work_dir.empty()
                            ? fs::path(opts.out_path).parent_path()
                            : fs::path(opts.work_dir);
  std::error_code ec;
  if (!work.empty()) fs::create_directories(work, ec);

  // Live suite telemetry: the registry counts finished bench
  // invocations; the sampler's decorate hook shapes them into the
  // generic work section (plus the in-flight bench name) so rvsym-top
  // gets a progress bar and ETA over the whole suite.
  obs::MetricsRegistry registry;
  obs::Counter& invocations = registry.counter("bench.invocations");
  std::atomic<const BenchSpec*> in_flight{nullptr};
  const std::uint64_t total_invocations =
      static_cast<std::uint64_t>(selected.size()) *
      (opts.warmup + opts.repeats);
  obs::TimeseriesOptions ts;
  ts.out_path = opts.timeseries_out;
  ts.status_path = opts.status_file;
  ts.interval_s = opts.sample_interval_s;
  ts.kind = "bench";
  ts.total_work = total_invocations;
  obs::TimeseriesSampler sampler(
      ts, registry, [&](obs::HeartbeatSnapshot& s) {
        s.has_work = true;
        s.work_label = "invocations";
        s.work_done = invocations.get();
        s.work_total = total_invocations;
        if (const BenchSpec* spec = in_flight.load())
          s.extra = "bench=" + spec->name;
      });
  if (!opts.timeseries_out.empty() || !opts.status_file.empty()) {
    std::string err;
    if (!sampler.start(&err)) {
      std::fprintf(stderr, "rvsym-bench: %s\n", err.c_str());
      return 2;
    }
  }

  std::vector<BenchRun> runs;
  bool all_ok = true;
  for (const BenchSpec* spec : selected) {
    const fs::path exe = fs::path(opts.bin_dir) / spec->exe;
    if (!fs::exists(exe)) {
      std::fprintf(stderr, "bench binary not found: %s\n",
                   exe.string().c_str());
      return 2;
    }
    const fs::path out_file = work / (spec->name + ".bench.json");
    const fs::path log_file = work / (spec->name + ".log");

    std::string cmd = shellQuote(exe.string());
    for (const std::string& a : suiteArgs(*spec, opts.suite))
      cmd += " " + shellQuote(a);
    cmd += spec->google_benchmark
               ? " " + shellQuote("--benchmark_out=" + out_file.string())
               : " --out " + shellQuote(out_file.string());
    cmd += " > " + shellQuote(log_file.string()) + " 2>&1";

    BenchRun run;
    run.name = spec->name;
    run.ok = true;
    in_flight.store(spec);
    const unsigned total = opts.warmup + opts.repeats;
    for (unsigned i = 0; i < total; ++i) {
      const bool timed = i >= opts.warmup;
      std::printf("[%s] %s %u/%u ...\n", spec->name.c_str(),
                  timed ? "repeat" : "warmup",
                  timed ? i - opts.warmup + 1 : i + 1,
                  timed ? opts.repeats : opts.warmup);
      std::fflush(stdout);
      std::uint64_t wall_us = 0;
      const int rc = runCommand(cmd, wall_us);
      invocations.add(1);
      if (rc != 0) {
        std::fprintf(stderr, "[%s] exited with %d (log: %s)\n",
                     spec->name.c_str(), rc, log_file.string().c_str());
        run.ok = false;
      }
      if (timed) run.wall_us.push_back(wall_us);
    }
    if (auto doc = readFile(out_file.string())) {
      // Validate before splicing verbatim into the run document.
      std::string err;
      if (parseJson(*doc, &err)) {
        // Strip the trailing newline the Reporter appends.
        while (!doc->empty() && (doc->back() == '\n' || doc->back() == '\r'))
          doc->pop_back();
        run.report_json = *doc;
      } else {
        std::fprintf(stderr, "[%s] unparseable self-report (%s)\n",
                     spec->name.c_str(), err.c_str());
        run.ok = false;
      }
    } else {
      std::fprintf(stderr, "[%s] no self-report at %s\n", spec->name.c_str(),
                   out_file.string().c_str());
      run.ok = false;
    }
    all_ok = all_ok && run.ok;
    std::printf("[%s] median %.1f ms over %zu repeats%s\n", spec->name.c_str(),
                static_cast<double>(medianU64(run.wall_us)) / 1000.0,
                run.wall_us.size(), run.ok ? "" : "  (FAILED)");
    runs.push_back(std::move(run));
  }
  sampler.stop();

  std::FILE* f = std::fopen(opts.out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 opts.out_path.c_str());
    return 2;
  }
  std::fprintf(f, "%s\n", runDocument(opts, runs).c_str());
  std::fclose(f);
  std::printf("wrote %s (%zu benches)\n", opts.out_path.c_str(), runs.size());
  return all_ok ? 0 : 1;
}

namespace {

struct BenchSummary {
  bool ok = false;
  std::uint64_t wall_median_us = 0;
};

std::optional<std::map<std::string, BenchSummary>> loadRun(
    const std::string& path) {
  const auto text = readFile(path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string err;
  const auto doc = parseJson(*text, &err);
  if (!doc) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), err.c_str());
    return std::nullopt;
  }
  const auto schema = doc->getString("schema");
  if (!schema || *schema != "rvsym-bench-run-v1") {
    std::fprintf(stderr, "%s: not an rvsym-bench-run-v1 document\n",
                 path.c_str());
    return std::nullopt;
  }
  const JsonValue* benches = doc->find("benches");
  if (!benches || !benches->isArray()) {
    std::fprintf(stderr, "%s: missing benches array\n", path.c_str());
    return std::nullopt;
  }
  std::map<std::string, BenchSummary> out;
  for (const JsonValue& b : benches->items()) {
    const auto name = b.getString("name");
    if (!name) continue;
    BenchSummary s;
    s.ok = b.getBool("ok").value_or(false);
    s.wall_median_us = b.getU64("wall_median_us").value_or(0);
    out[*name] = s;
  }
  return out;
}

std::size_t editDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// Closest name to `name` among the other side's benches — a renamed
/// bench shows up as missing+new, and the suggestion links the pair.
std::string nearestName(const std::string& name,
                        const std::map<std::string, BenchSummary>& pool) {
  std::string best;
  std::size_t best_dist = name.size();  // farther than that isn't a rename
  for (const auto& [cand, s] : pool) {
    (void)s;
    const std::size_t d = editDistance(name, cand);
    if (d < best_dist) {
      best_dist = d;
      best = cand;
    }
  }
  return best;
}

}  // namespace

int compareRuns(const std::string& current_path,
                const std::string& baseline_path, double threshold_pct) {
  const auto current = loadRun(current_path);
  const auto baseline = loadRun(baseline_path);
  if (!current || !baseline) return 2;

  std::printf("%-18s %14s %14s %9s  %s\n", "bench", "baseline[ms]",
              "current[ms]", "delta", "verdict");
  std::printf("%s\n", std::string(68, '-').c_str());

  int regressions = 0;
  std::vector<std::string> notes;
  for (const auto& [name, base] : *baseline) {
    const auto it = current->find(name);
    if (it == current->end()) {
      std::printf("%-18s %14.1f %14s %9s  MISSING\n", name.c_str(),
                  static_cast<double>(base.wall_median_us) / 1000.0, "-", "-");
      std::string note = "'" + name + "' is in the baseline (" +
                         baseline_path + ") but not in the current run (" +
                         current_path + ")";
      const std::string near = nearestName(name, *current);
      if (!near.empty()) note += "; did you mean '" + near + "'?";
      notes.push_back(std::move(note));
      ++regressions;
      continue;
    }
    const BenchSummary& cur = it->second;
    const double base_ms = static_cast<double>(base.wall_median_us) / 1000.0;
    const double cur_ms = static_cast<double>(cur.wall_median_us) / 1000.0;
    const double delta_pct =
        base.wall_median_us == 0
            ? 0.0
            : 100.0 * (cur_ms - base_ms) / base_ms;
    const bool slow = base.wall_median_us != 0 && delta_pct > threshold_pct;
    const bool broken = !cur.ok;
    if (slow || broken) ++regressions;
    std::printf("%-18s %14.1f %14.1f %+8.1f%%  %s\n", name.c_str(), base_ms,
                cur_ms, delta_pct,
                broken ? "FAILED" : (slow ? "REGRESSED" : "ok"));
  }
  // Benches present only in the current run are informational.
  for (const auto& [name, cur] : *current)
    if (!baseline->count(name)) {
      std::printf("%-18s %14s %14.1f %9s  new\n", name.c_str(), "-",
                  static_cast<double>(cur.wall_median_us) / 1000.0, "-");
      std::string note = "'" + name + "' is in the current run (" +
                         current_path + ") but not in the baseline (" +
                         baseline_path + ")";
      const std::string near = nearestName(name, *baseline);
      if (!near.empty()) note += "; nearest baseline name is '" + near + "'";
      notes.push_back(std::move(note));
    }

  std::printf("%s\n", std::string(68, '-').c_str());
  for (const auto& note : notes) std::printf("note: %s\n", note.c_str());
  if (regressions == 0) {
    std::printf("no regressions (threshold %.0f%%)\n", threshold_pct);
    return 0;
  }
  std::printf("%d bench(es) regressed beyond %.0f%% (or failed/missing)\n",
              regressions, threshold_pct);
  return 1;
}

}  // namespace rvsym::bench
