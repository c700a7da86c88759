// Jobs-scaling benchmark for the parallel exploration engine: runs a
// fixed workload (the Table II E0-E9 hunt at instruction limit 1, plus
// an unguided limit-1 sweep) across a ladder of worker counts and
// emits both a human-readable table and a machine-readable JSON file
//
//   [{"workload": "...", "jobs": N, "seconds": S,
//     "paths": P, "cache_hits": H}, ...]
//
// for plotting / CI trend tracking. The committer hands out prefixes
// in sequential searcher order, so `paths` must be identical down each
// column — a free cross-check of the determinism guarantee that the
// table prints explicitly.
//
//   bench_scaling [--jobs-list 1,2,4,8] [--out bench_scaling.json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cosim.hpp"
#include "fault/faults.hpp"
#include "harness/reporter.hpp"
#include "obs/json.hpp"
#include "symex/engine.hpp"

namespace {

using namespace rvsym;

struct Sample {
  std::string workload;
  unsigned jobs = 1;
  double seconds = 0;
  std::uint64_t paths = 0;
  std::uint64_t cache_hits = 0;
  bool found = false;
};

Sample runWorkload(const std::string& name, const core::CosimConfig& cfg,
                   bool stop_on_error, unsigned jobs) {
  symex::EngineOptions opts;
  opts.stop_on_error = stop_on_error;
  opts.max_seconds = 300;
  opts.max_paths = stop_on_error ? 200000 : 400;
  opts.collect_test_vectors = false;
  opts.jobs = jobs;

  symex::Engine engine(opts);
  const symex::EngineReport report = engine.run(core::cosimFactory(cfg));

  Sample s;
  s.workload = name;
  s.jobs = jobs;
  s.seconds = report.seconds;
  s.paths = report.totalPaths();
  s.cache_hits = report.qcache_hits;
  s.found = report.error_paths > 0;
  return s;
}

std::string samplesJson(const std::vector<Sample>& samples) {
  obs::JsonWriter w;
  w.beginObject();
  w.key("samples").beginArray();
  for (const Sample& s : samples) {
    w.beginObject();
    w.field("workload", s.workload);
    w.field("jobs", s.jobs);
    w.field("seconds", s.seconds);
    w.field("paths", s.paths);
    w.field("cache_hits", s.cache_hits);
    w.field("found", s.found);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("scaling");
  std::vector<unsigned> jobs_list{1, 2, 4, 8};
  std::string out_path = "bench_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs-list") == 0 && i + 1 < argc) {
      jobs_list.clear();
      for (const char* p = argv[++i]; *p;) {
        jobs_list.push_back(static_cast<unsigned>(std::strtoul(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (!p) break;
        ++p;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs-list 1,2,4,8] [--out FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }

  // Workload 1: the Table II fault hunt, E0-E9 at instruction limit 1,
  // stop at first mismatch (the acceptance workload for the speedup).
  // Workload 2: an unguided bounded sweep of the authentic pair, which
  // exercises the cache on a no-error exploration profile.
  struct Workload {
    std::string name;
    std::vector<core::CosimConfig> configs;
    bool stop_on_error = false;
  };
  std::vector<Workload> workloads;
  {
    Workload hunt;
    hunt.name = "table2-E0-E9-limit1";
    hunt.stop_on_error = true;
    for (const fault::InjectedError& error : fault::allErrors()) {
      core::CosimConfig cfg;
      cfg.rtl = rtl::fixedRtlConfig();
      cfg.iss.csr = iss::CsrConfig::specCorrect();
      cfg.instr_limit = 1;
      cfg.instr_constraint = core::CoSimulation::blockSystemInstructions();
      error.apply(cfg);
      hunt.configs.push_back(std::move(cfg));
    }
    workloads.push_back(std::move(hunt));

    Workload sweep;
    sweep.name = "unguided-limit1-400paths";
    core::CosimConfig cfg;
    cfg.instr_limit = 1;
    sweep.configs.push_back(std::move(cfg));
    workloads.push_back(std::move(sweep));
  }

  std::printf("PARALLEL EXPLORATION — JOBS SCALING\n\n");
  std::printf("%-26s %5s %10s %10s %12s %6s\n", "workload", "jobs",
              "seconds", "paths", "cache_hits", "ok");
  std::printf("%s\n", std::string(74, '-').c_str());

  std::vector<Sample> samples;
  bool deterministic = true;
  int rc = 0;
  for (const Workload& w : workloads) {
    std::uint64_t baseline_paths = 0;
    for (std::size_t ji = 0; ji < jobs_list.size(); ++ji) {
      const unsigned jobs = jobs_list[ji];
      // Aggregate the per-config runs into one sample per jobs value.
      Sample agg;
      agg.workload = w.name;
      agg.jobs = jobs;
      agg.found = true;
      for (const core::CosimConfig& cfg : w.configs) {
        const Sample s = runWorkload(w.name, cfg, w.stop_on_error, jobs);
        agg.seconds += s.seconds;
        agg.paths += s.paths;
        agg.cache_hits += s.cache_hits;
        agg.found = agg.found && (!w.stop_on_error || s.found);
      }
      if (ji == 0) baseline_paths = agg.paths;
      const bool paths_match = agg.paths == baseline_paths;
      deterministic = deterministic && paths_match;
      if (w.stop_on_error && !agg.found) rc = 1;
      std::printf("%-26s %5u %10.3f %10llu %12llu %6s\n", agg.workload.c_str(),
                  agg.jobs, agg.seconds,
                  static_cast<unsigned long long>(agg.paths),
                  static_cast<unsigned long long>(agg.cache_hits),
                  paths_match && agg.found ? "yes" : "NO");
      samples.push_back(agg);
    }
  }

  std::printf("\npath counts identical across all worker counts: %s\n",
              deterministic ? "yes" : "NO");
  if (!deterministic) rc = 1;
  {
    std::string jl;
    for (unsigned j : jobs_list)
      jl += (jl.empty() ? "" : ",") + std::to_string(j);
    reporter.param("jobs_list", jl)
        .counter("samples", static_cast<std::uint64_t>(samples.size()))
        .param("deterministic", deterministic)
        .ok(rc == 0)
        .payload(samplesJson(samples));
    reporter.writeFile(out_path);
  }
  return rc;
}
