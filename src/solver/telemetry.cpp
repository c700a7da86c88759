#include "solver/telemetry.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/trace_events.hpp"
#include "solver/corpus.hpp"

namespace rvsym::solver {

namespace {

std::uint64_t dedupKey(const CanonHash& h) {
  return h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL);
}

std::string hashBasename(const CanonHash& h) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "q_%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

void SolverTelemetry::attachMetrics(obs::MetricsRegistry& registry) {
  m_queries_ = &registry.counter("solver.queries");
  m_slow_ = &registry.counter("solver.slow_queries");
  m_bitblast_us_ = &registry.histogram("solver.bitblast_us");
  m_sat_us_ = &registry.histogram("solver.sat_us");
  m_nodes_ = &registry.histogram("solver.query_nodes");
}

bool SolverTelemetry::record(const Query& q) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (m_queries_) m_queries_->add();
  if (spans_ != nullptr) {
    // The span ends now (record() runs right after the check) and
    // covers the measured bitblast+SAT work; cache-answered queries
    // become zero-duration markers on the worker's track.
    spans_->addEnding(
        dispositionName(q.disposition), "solver", q.bitblast_us + q.sat_us,
        {{"disposition",
          "\"" + std::string(dispositionName(q.disposition)) + "\""},
         {"verdict", "\"" + std::string(verdictName(q.verdict)) + "\""},
         {"expr_nodes", std::to_string(q.expr_nodes)},
         {"sat_vars", std::to_string(q.sat_vars)},
         {"sat_clauses", std::to_string(q.sat_clauses)},
         {"bitblast_us", std::to_string(q.bitblast_us)},
         {"sat_us", std::to_string(q.sat_us)}});
  }
  switch (q.disposition) {
    case Disposition::Hit:
    case Disposition::CexModel:
    case Disposition::CexCore:
    case Disposition::Rewrite:
      return false;  // answered without bit-blasting or solving
    default:
      break;
  }

  if (m_bitblast_us_) m_bitblast_us_->record(q.bitblast_us);
  if (m_sat_us_) m_sat_us_->record(q.sat_us);
  if (m_nodes_) m_nodes_->record(q.expr_nodes);

  if (opts_.slow_query_us == 0) return false;
  if (q.bitblast_us + q.sat_us < opts_.slow_query_us) return false;
  slow_.fetch_add(1, std::memory_order_relaxed);
  if (m_slow_) m_slow_->add();

  // Unknown verdicts are conflict-budget artifacts; replaying them
  // offline (unbudgeted) would legitimately disagree, so never dump.
  if (q.verdict == CheckResult::Unknown) return false;
  if (opts_.corpus_dir.empty()) return false;
  const std::lock_guard<std::mutex> lk(mu_);
  return dumped_keys_.insert(dedupKey(q.hash)).second;
}

bool SolverTelemetry::dump(const Query& q,
                           const std::vector<expr::ExprRef>& constraints,
                           const expr::ExprRef& assumption,
                           const std::string& dimacs) {
  CorpusQuery cq;
  cq.constraints = constraints;
  cq.assumption = assumption;
  cq.verdict = q.verdict;
  cq.sat_us = q.sat_us;
  cq.bitblast_us = q.bitblast_us;
  const std::string text = formatQuery(cq);
  if (text.empty()) return false;

  const std::lock_guard<std::mutex> lk(mu_);
  if (!dir_ready_) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.corpus_dir, ec);
    if (ec) return false;
    dir_ready_ = true;
  }
  const std::string base = opts_.corpus_dir + "/" + hashBasename(q.hash);
  if (!writeFile(base + ".query", text)) return false;
  if (!writeFile(base + ".cnf", dimacs)) return false;
  dumped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

const char* dispositionName(SolverTelemetry::Disposition d) {
  switch (d) {
    case SolverTelemetry::Disposition::Uncached:
      return "uncached";
    case SolverTelemetry::Disposition::Hit:
      return "exact";
    case SolverTelemetry::Disposition::Miss:
      return "solve";
    case SolverTelemetry::Disposition::CexModel:
      return "cex-model";
    case SolverTelemetry::Disposition::CexCore:
      return "cex-core";
    case SolverTelemetry::Disposition::Rewrite:
      return "rewrite";
    case SolverTelemetry::Disposition::Sliced:
      return "slice";
  }
  return "?";
}

}  // namespace rvsym::solver
