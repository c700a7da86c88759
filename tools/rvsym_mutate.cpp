// rvsym-mutate — the RTL mutation-testing campaign driver.
//
//   rvsym-mutate list [--kinds K,...] [--ops OP,...]
//       Enumerate the mutation space (optionally filtered) and print
//       one mutant id per line plus the total.
//
//   rvsym-mutate run [filters] [--journal FILE] [--jobs N] ...
//       Judge every selected mutant with the bounded symbolic
//       co-simulation and print the mutation score. Writes the
//       resumable JSONL journal, survivor manifests, killed-mutant
//       repro bundles and the HTML survivor heatmap on request. Live
//       telemetry rides along: --timeseries-out / --status-file stream
//       rvsym-timeseries-v1 samples a concurrent `rvsym-top` renders,
//       --trace-events-out dumps a Chrome trace of phase + solver
//       spans, --metrics-out the final registry snapshot.
//
//   rvsym-mutate resume [same flags as run]
//       `run` with --resume implied: mutants already judged in the
//       journal are skipped; a completed journal makes this a no-op.
//
//   rvsym-mutate report <journal> [--html FILE] [--metrics-out FILE]
//                       [--heartbeat]
//       Offline summary of a campaign journal: score, verdict counts,
//       survivor list; optionally the self-contained HTML heatmap, the
//       summary as one JSON document (--metrics-out) or as a single
//       heartbeat line (--heartbeat) for log-grep parity with live
//       campaign output.
//
//   rvsym-mutate diff <journalA> <journalB>
//       Compare two journals' deterministic content (t_*/qc_* fields
//       stripped). Exit 0 when identical, 1 when different — CI asserts
//       --jobs 1 vs --jobs 4 campaign parity with this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/faults.hpp"
#include "mut/campaign.hpp"
#include "mut/journal.hpp"
#include "mut/space.hpp"
#include "obs/analyze/mutation_report.hpp"
#include "obs/bundle.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_events.hpp"
#include "solver/options.hpp"
#include "solver/telemetry.hpp"

namespace {

using namespace rvsym;

int usage() {
  std::fprintf(
      stderr,
      "usage: rvsym-mutate list [--kinds K,...] [--ops OP,...]\n"
      "       rvsym-mutate run|resume [--kinds K,...] [--ops OP,...]\n"
      "           [--mutant ID ...] [--paper] [--journal FILE] [--jobs N]\n"
      "           [--engine-jobs N] [--max-instr-limit K] [--max-paths N]\n"
      "           [--max-seconds S] [--scenario S] [--survivor-dir DIR]\n"
      "           [--trace-dir DIR]\n"
      "           [--bundle-killed DIR] [--html FILE] [--heartbeat SECS]\n"
      "           [--no-equivalence] [--no-cache] [--solver-opt S]\n"
      "           [--timeseries-out FILE] [--status-file FILE]\n"
      "           [--sample-interval SECS] [--trace-events-out FILE]\n"
      "           [--metrics-out FILE]\n"
      "       rvsym-mutate report <journal> [--html FILE]\n"
      "           [--metrics-out FILE] [--heartbeat]\n"
      "       rvsym-mutate diff <journalA> <journalB>\n"
      "\n"
      "kinds: dec stuck swap mem flag; ops: rv32 mnemonics (slli, add,\n"
      "...). --paper selects the ten Table II errors E0-E9.\n");
  return 2;
}

std::vector<std::string> splitList(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

bool parseKind(const std::string& name, mut::MutantKind& kind) {
  for (mut::MutantKind k :
       {mut::MutantKind::DecodeBit, mut::MutantKind::StuckBit,
        mut::MutantKind::BranchSwap, mut::MutantKind::MemFault,
        mut::MutantKind::CtrlFlag}) {
    if (name == mut::mutantKindName(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

bool parseOp(const std::string& name, rv32::Opcode& op) {
  for (std::size_t i = 1; i <= rv32::kLegalOpcodeCount; ++i) {
    const auto candidate = static_cast<rv32::Opcode>(i);
    if (name == rv32::opcodeName(candidate)) {
      op = candidate;
      return true;
    }
  }
  return false;
}

struct Selection {
  mut::SpaceFilter filter;
  std::vector<std::string> mutant_ids;  ///< --mutant (overrides filter)
  bool paper = false;
};

/// The selected mutant set, in a deterministic order.
std::vector<mut::Mutant> selectMutants(const Selection& sel) {
  std::vector<mut::Mutant> mutants;
  if (sel.paper) {
    for (const mut::PaperMutant& pm : mut::paperMutants())
      mutants.push_back(pm.mutant);
    return mutants;
  }
  if (!sel.mutant_ids.empty()) {
    for (const std::string& id : sel.mutant_ids)
      mutants.push_back(mut::mutantById(id));
    return mutants;
  }
  return mut::enumerateSpace(sel.filter);
}

int cmdList(const std::vector<std::string>& args) {
  Selection sel;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--kinds" && i + 1 < args.size()) {
      for (const std::string& name : splitList(args[++i])) {
        mut::MutantKind k;
        if (!parseKind(name, k)) return usage();
        sel.filter.kinds.push_back(k);
      }
    } else if (args[i] == "--ops" && i + 1 < args.size()) {
      for (const std::string& name : splitList(args[++i])) {
        rv32::Opcode op;
        if (!parseOp(name, op)) return usage();
        sel.filter.ops.push_back(op);
      }
    } else {
      return usage();
    }
  }
  const std::vector<mut::Mutant> mutants = mut::enumerateSpace(sel.filter);
  for (const mut::Mutant& m : mutants)
    std::printf("%-24s %s\n", m.id().c_str(), m.description().c_str());
  std::printf("%zu mutants\n", mutants.size());
  return 0;
}

std::string sanitizeId(std::string id) {
  for (char& c : id)
    if (c == ':' || c == '=') c = '-';
  return id;
}

int cmdRun(const std::vector<std::string>& args, bool resume) {
  Selection sel;
  mut::CampaignOptions opts;
  opts.resume = resume;
  std::string html_path, bundle_dir;
  std::string timeseries_out, status_file, trace_events_out, metrics_out;
  double sample_interval = 0.5;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (a == "--kinds") {
      for (const std::string& name : splitList(next())) {
        mut::MutantKind k;
        if (!parseKind(name, k)) return usage();
        sel.filter.kinds.push_back(k);
      }
    } else if (a == "--ops") {
      for (const std::string& name : splitList(next())) {
        rv32::Opcode op;
        if (!parseOp(name, op)) return usage();
        sel.filter.ops.push_back(op);
      }
    } else if (a == "--mutant") {
      sel.mutant_ids.push_back(next());
    } else if (a == "--paper") {
      sel.paper = true;
    } else if (a == "--journal") {
      opts.journal_path = next();
    } else if (a == "--resume") {
      opts.resume = true;
    } else if (a == "--jobs") {
      opts.jobs = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (a == "--engine-jobs") {
      opts.engine_jobs = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (a == "--max-instr-limit") {
      opts.max_instr_limit = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (a == "--max-paths") {
      opts.max_paths_per_hunt = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--max-seconds") {
      opts.max_seconds_per_hunt = std::atof(next().c_str());
    } else if (a == "--scenario") {
      opts.scenario = next();
    } else if (a == "--survivor-dir") {
      opts.survivor_dir = next();
    } else if (a == "--trace-dir") {
      opts.trace_dir = next();
    } else if (a == "--bundle-killed") {
      bundle_dir = next();
    } else if (a == "--html") {
      html_path = next();
    } else if (a == "--heartbeat") {
      opts.heartbeat_seconds = std::atof(next().c_str());
    } else if (a == "--timeseries-out") {
      timeseries_out = next();
    } else if (a == "--status-file") {
      status_file = next();
    } else if (a == "--sample-interval") {
      sample_interval = std::atof(next().c_str());
    } else if (a == "--trace-events-out") {
      trace_events_out = next();
    } else if (a == "--metrics-out") {
      metrics_out = next();
    } else if (a == "--no-equivalence") {
      opts.check_decode_equivalence = false;
    } else if (a == "--no-cache") {
      opts.use_query_cache = false;
    } else if (a == "--solver-opt") {
      std::string err;
      if (!solver::parseSolverOpt(next(), &opts.solver_opt, &err)) {
        std::fprintf(stderr, "--solver-opt: %s\n", err.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }

  if (opts.scenario != "rv32i") {
    const auto constraint = obs::scenarioConstraint(opts.scenario);
    if (!constraint) {
      std::fprintf(stderr, "unknown scenario %s\n", opts.scenario.c_str());
      return 2;
    }
    opts.instr_constraint = *constraint;
  }
  if (!opts.survivor_dir.empty())
    std::system(("mkdir -p " + opts.survivor_dir).c_str());

  // Killed-mutant repro bundles, written as verdicts commit.
  if (!bundle_dir.empty()) {
    std::system(("mkdir -p " + bundle_dir).c_str());
    opts.on_result = [&opts, bundle_dir](const mut::MutantResult& r) {
      if (r.verdict != mut::Verdict::Killed || !r.has_kill_test) return;
      obs::BundleDescriptor desc;
      desc.fault_id = r.mutant.id();
      desc.scenario = opts.scenario;
      desc.instr_limit = r.kill_instr_limit;
      desc.num_symbolic_regs = opts.num_symbolic_regs;
      desc.message = r.kill_message;
      const std::string dir = bundle_dir + "/" + sanitizeId(r.mutant.id());
      if (!obs::writeMismatchBundle(dir, desc, r.kill_test))
        std::fprintf(stderr, "bundle replay failed for %s\n",
                     r.mutant.id().c_str());
    };
  }

  // The live surfaces (sampler, status file) and the --metrics-out dump
  // all read one registry; any of them turns it on.
  const bool want_registry = !metrics_out.empty() || !timeseries_out.empty() ||
                             !status_file.empty();
  const bool want_spans = !trace_events_out.empty();
  obs::MetricsRegistry registry;
  if (want_registry) opts.metrics = &registry;

  // Per-query solver telemetry (implies per-check solver timing, so only
  // on when a consumer exists) and phase/solver span capture.
  std::unique_ptr<solver::SolverTelemetry> telemetry;
  if (want_registry || want_spans) {
    telemetry = std::make_unique<solver::SolverTelemetry>(
        solver::SolverTelemetry::Options{});
    if (want_registry) telemetry->attachMetrics(registry);
    opts.telemetry = telemetry.get();
  }

  obs::PhaseProfiler profiler;
  obs::SpanCollector spans;
  if (want_spans) {
    profiler.attachSpans(&spans);
    telemetry->attachSpans(&spans);
    opts.profiler = &profiler;
  }

  std::vector<mut::Mutant> mutants;
  try {
    mutants = selectMutants(sel);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "rvsym-mutate: %s\n", e.what());
    return 2;
  }

  // Live sampler: one thread snapshotting the registry into the
  // timeseries stream / status file while the campaign runs.
  obs::TimeseriesOptions ts;
  ts.out_path = timeseries_out;
  ts.status_path = status_file;
  ts.interval_s = sample_interval;
  ts.kind = "mutate";
  ts.total_work = mutants.size();
  obs::TimeseriesSampler sampler(ts, registry);
  if (!timeseries_out.empty() || !status_file.empty()) {
    std::string err;
    if (!sampler.start(&err)) {
      std::fprintf(stderr, "rvsym-mutate: %s\n", err.c_str());
      return 2;
    }
  }

  mut::CampaignRunner runner(opts);
  const mut::CampaignReport report = runner.run(mutants);
  sampler.stop();

  if (want_spans) {
    if (!spans.writeChromeTrace(trace_events_out))
      std::fprintf(stderr, "cannot write --trace-events-out file '%s'\n",
                   trace_events_out.c_str());
    else
      std::printf("wrote %zu trace-event spans to %s\n", spans.size(),
                  trace_events_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::JsonWriter w;
    w.beginObject();
    w.key("campaign").beginObject();
    w.field("mutants", static_cast<std::uint64_t>(mutants.size()));
    w.field("killed", report.killed);
    w.field("survived", report.survived);
    w.field("equivalent", report.equivalent);
    w.field("skipped", report.skipped);
    w.field("score", report.mutationScore());
    w.endObject();
    w.key("metrics").rawValue(registry.toJson());
    w.endObject();
    std::ofstream out(metrics_out, std::ios::binary);
    out << w.str() << "\n";
    if (!out)
      std::fprintf(stderr, "cannot write --metrics-out file '%s'\n",
                   metrics_out.c_str());
  }

  std::printf(
      "%zu mutants: %llu killed, %llu survived, %llu equivalent, "
      "%llu skipped (resumed)\n",
      mutants.size(), static_cast<unsigned long long>(report.killed),
      static_cast<unsigned long long>(report.survived),
      static_cast<unsigned long long>(report.equivalent),
      static_cast<unsigned long long>(report.skipped));
  if (report.killed + report.survived != 0)
    std::printf("mutation score: %.1f%%\n", 100.0 * report.mutationScore());
  else if (report.skipped != 0)
    std::printf("no new verdicts (journal already complete); see "
                "`rvsym-mutate report` for the score\n");
  for (const mut::MutantResult& r : report.results)
    if (r.verdict == mut::Verdict::Survived)
      std::printf("  survivor: %-24s %s\n", r.mutant.id().c_str(),
                  r.mutant.description().c_str());
  const std::uint64_t q = report.qcache_hits + report.qcache_misses;
  if (q != 0)
    std::printf("query cache: %llu hits / %llu misses (%.1f%%)\n",
                static_cast<unsigned long long>(report.qcache_hits),
                static_cast<unsigned long long>(report.qcache_misses),
                100.0 * static_cast<double>(report.qcache_hits) /
                    static_cast<double>(q));

  if (!html_path.empty()) {
    if (opts.journal_path.empty()) {
      std::fprintf(stderr, "--html needs --journal (it renders the journal)\n");
      return 2;
    }
    const auto journal =
        obs::analyze::loadMutationJournal(opts.journal_path);
    if (!journal || !obs::analyze::writeMutationHtml(html_path, *journal)) {
      std::fprintf(stderr, "cannot write %s\n", html_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", html_path.c_str());
  }
  return 0;
}

int cmdReport(const std::vector<std::string>& args) {
  std::string journal_path, html_path, metrics_out;
  bool heartbeat = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--html" && i + 1 < args.size()) html_path = args[++i];
    else if (args[i] == "--metrics-out" && i + 1 < args.size())
      metrics_out = args[++i];
    else if (args[i] == "--heartbeat") heartbeat = true;
    else if (journal_path.empty() && args[i][0] != '-') journal_path = args[i];
    else return usage();
  }
  if (journal_path.empty()) return usage();
  std::string err;
  const auto journal = obs::analyze::loadMutationJournal(journal_path, &err);
  if (!journal) {
    std::fprintf(stderr, "rvsym-mutate: %s\n", err.c_str());
    return 1;
  }
  const obs::analyze::MutationSummary s =
      obs::analyze::summarizeMutationJournal(*journal);
  std::printf("journal: %zu judged of %llu declared (scenario %s, "
              "instruction limit %u)\n",
              journal->entries.size(),
              static_cast<unsigned long long>(journal->declared_mutants),
              journal->scenario.c_str(), journal->max_instr_limit);
  std::printf("mutation score: %.1f%% (%llu killed / %llu survived / "
              "%llu equivalent)\n",
              100.0 * s.mutationScore(),
              static_cast<unsigned long long>(s.killed),
              static_cast<unsigned long long>(s.survived),
              static_cast<unsigned long long>(s.equivalent));
  for (const obs::analyze::MutationEntry& e : journal->entries)
    if (e.verdict == "survived")
      std::printf("  survivor: %s\n", e.mutant.c_str());
  if (heartbeat) {
    // The same line a live campaign's --heartbeat prints, rebuilt from
    // the journal — greps written against live logs work offline too.
    obs::HeartbeatSnapshot hb;
    hb.has_campaign = true;
    hb.mutants_total = journal->declared_mutants;
    hb.mutants_judged = journal->entries.size();
    hb.mutants_killed = s.killed;
    hb.mutants_survived = s.survived;
    hb.mutants_equivalent = s.equivalent;
    obs::emitHeartbeatLine(hb, "report");
  }
  if (!metrics_out.empty()) {
    obs::JsonWriter w;
    w.beginObject();
    w.key("campaign").beginObject();
    w.field("declared", journal->declared_mutants);
    w.field("judged", static_cast<std::uint64_t>(journal->entries.size()));
    w.field("killed", s.killed);
    w.field("survived", s.survived);
    w.field("equivalent", s.equivalent);
    w.field("score", s.mutationScore());
    w.field("scenario", journal->scenario);
    w.field("max_instr_limit",
            static_cast<std::uint64_t>(journal->max_instr_limit));
    w.endObject();
    w.endObject();
    std::ofstream out(metrics_out, std::ios::binary);
    out << w.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write --metrics-out file '%s'\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  if (!html_path.empty()) {
    if (!obs::analyze::writeMutationHtml(html_path, *journal)) {
      std::fprintf(stderr, "cannot write %s\n", html_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", html_path.c_str());
  }
  return 0;
}

int cmdDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  std::string err;
  const auto a = obs::analyze::loadMutationJournal(args[0], &err);
  if (!a) {
    std::fprintf(stderr, "rvsym-mutate: %s\n", err.c_str());
    return 2;
  }
  const auto b = obs::analyze::loadMutationJournal(args[1], &err);
  if (!b) {
    std::fprintf(stderr, "rvsym-mutate: %s\n", err.c_str());
    return 2;
  }
  const std::vector<std::string> diffs =
      obs::analyze::diffMutationJournals(*a, *b);
  for (const std::string& d : diffs) std::printf("%s\n", d.c_str());
  std::printf("%s\n", diffs.empty() ? "journals identical" : "journals differ");
  return diffs.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "list") return cmdList(args);
  if (cmd == "run") return cmdRun(args, /*resume=*/false);
  if (cmd == "resume") return cmdRun(args, /*resume=*/true);
  if (cmd == "report") return cmdReport(args);
  if (cmd == "diff") return cmdDiff(args);
  return usage();
}
