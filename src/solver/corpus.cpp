#include "solver/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "expr/serialize.hpp"

namespace rvsym::solver {

namespace {

constexpr std::string_view kMagic = "rvsym-query-v1";

std::optional<std::uint64_t> parseU64(std::string_view tok) {
  if (tok.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

const char* verdictName(CheckResult v) {
  switch (v) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "unknown";
}

std::optional<CheckResult> verdictByName(std::string_view s) {
  if (s == "sat") return CheckResult::Sat;
  if (s == "unsat") return CheckResult::Unsat;
  if (s == "unknown") return CheckResult::Unknown;
  return std::nullopt;
}

std::uint64_t countUniqueNodes(const std::vector<expr::ExprRef>& roots) {
  std::unordered_set<const expr::Expr*> seen;
  std::vector<const expr::Expr*> stack;
  for (const expr::ExprRef& r : roots)
    if (r) stack.push_back(r.get());
  while (!stack.empty()) {
    const expr::Expr* e = stack.back();
    stack.pop_back();
    if (!seen.insert(e).second) continue;
    for (int i = 0; i < e->numOperands(); ++i)
      stack.push_back(e->operand(i).get());
  }
  return seen.size();
}

std::string formatQuery(const CorpusQuery& q) {
  std::vector<expr::ExprRef> roots = q.constraints;
  if (q.assumption) roots.push_back(q.assumption);
  const std::optional<std::string> body = expr::serializeNodes(roots);
  if (!body) return {};

  std::string out;
  out += kMagic;
  out += '\n';
  out += "verdict ";
  out += verdictName(q.verdict);
  out += '\n';
  char buf[64];
  std::snprintf(buf, sizeof buf, "sat_us %llu\n",
                static_cast<unsigned long long>(q.sat_us));
  out += buf;
  std::snprintf(buf, sizeof buf, "bitblast_us %llu\n",
                static_cast<unsigned long long>(q.bitblast_us));
  out += buf;
  std::snprintf(buf, sizeof buf, "nodes %llu\n",
                static_cast<unsigned long long>(countUniqueNodes(roots)));
  out += buf;
  std::snprintf(buf, sizeof buf, "constraints %zu\n", q.constraints.size());
  out += buf;
  std::snprintf(buf, sizeof buf, "assume %d\n", q.assumption ? 1 : 0);
  out += buf;
  out += '\n';
  out += *body;
  return out;
}

std::optional<CorpusQuery> parseQuery(expr::ExprBuilder& eb,
                                      std::string_view text,
                                      std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CorpusQuery> {
    if (error) *error = why;
    return std::nullopt;
  };

  // Header: "key value" lines up to the first blank line.
  CorpusQuery q;
  std::size_t num_constraints = 0;
  bool has_assumption = false;
  bool saw_magic = false;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos)
      return fail("truncated header (no blank-line separator)");
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) break;  // header/body separator
    if (!saw_magic) {
      if (line != kMagic)
        return fail("bad magic (want '" + std::string(kMagic) + "')");
      saw_magic = true;
      continue;
    }
    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos) return fail("malformed header line");
    const std::string_view key = line.substr(0, sp);
    const std::string_view val = line.substr(sp + 1);
    if (key == "verdict") {
      const auto v = verdictByName(val);
      if (!v) return fail("unknown verdict");
      q.verdict = *v;
    } else if (key == "sat_us") {
      q.sat_us = parseU64(val).value_or(0);
    } else if (key == "bitblast_us") {
      q.bitblast_us = parseU64(val).value_or(0);
    } else if (key == "nodes") {
      q.nodes = parseU64(val).value_or(0);
    } else if (key == "constraints") {
      const auto n = parseU64(val);
      if (!n) return fail("bad constraints count");
      num_constraints = static_cast<std::size_t>(*n);
    } else if (key == "assume") {
      has_assumption = val == "1";
    }
    // Unknown keys are skipped: older readers tolerate newer dumps.
  }
  if (!saw_magic) return fail("empty document");

  std::string parse_error;
  const auto roots = expr::parseNodes(eb, text.substr(start), &parse_error);
  if (!roots) return fail("node parse failed: " + parse_error);
  const std::size_t expected = num_constraints + (has_assumption ? 1 : 0);
  if (roots->size() != expected)
    return fail("root count mismatch (header promises " +
                std::to_string(expected) + ", body has " +
                std::to_string(roots->size()) + ")");
  q.constraints.assign(roots->begin(),
                       roots->begin() + static_cast<long>(num_constraints));
  if (has_assumption) q.assumption = roots->back();
  return q;
}

std::optional<CorpusQuery> loadQueryFile(expr::ExprBuilder& eb,
                                         const std::string& path,
                                         std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  return parseQuery(eb, text, error);
}

CheckResult replayQuery(expr::ExprBuilder& eb, const CorpusQuery& q,
                        std::uint64_t* solve_us) {
  PathSolver ps(eb);
  ps.enableTiming(solve_us != nullptr);
  if (solve_us) *solve_us = 0;
  for (const expr::ExprRef& c : q.constraints) {
    if (!ps.addConstraint(c)) return CheckResult::Unsat;
  }
  const CheckResult r = q.assumption ? ps.check(q.assumption) : ps.checkPath();
  if (solve_us) *solve_us = ps.stats().solve_us;
  return r;
}

ReplayOutcome replayQueryOpt(expr::ExprBuilder& eb, const CorpusQuery& q,
                             const ReplayOptions& opts) {
  ReplayOutcome out;
  PathSolver ps(eb);
  ps.setOptions(opts.solver_opt);
  if (opts.query_cache || opts.hasher)
    ps.attachCache(opts.query_cache, opts.hasher);
  if (opts.cex_cache) ps.attachCexCache(opts.cex_cache);
  ps.enableTiming(true);
  for (const expr::ExprRef& c : q.constraints) {
    if (!ps.addConstraint(c)) {
      out.verdict = CheckResult::Unsat;
      out.via = "const";
      return out;
    }
  }
  out.verdict = q.assumption ? ps.check(q.assumption) : ps.checkPath();
  const QueryStats& s = ps.stats();
  out.solve_us = s.solve_us;
  if (s.cache_hits) out.via = "exact";
  else if (s.cex_model_hits) out.via = "cex-model";
  else if (s.cex_core_hits) out.via = "cex-core";
  else if (s.rewrite_decided) out.via = "rewrite";
  else if (s.sliced_solves) out.via = "slice";
  else if (s.sat_solves) out.via = "solve";
  else out.via = "const";
  return out;
}

std::vector<expr::ExprRef> ddminConstraints(expr::ExprBuilder& eb,
                                            const CorpusQuery& q,
                                            std::uint64_t* replays) {
  const auto holds = [&](const std::vector<expr::ExprRef>& subset) {
    if (replays) ++*replays;
    CorpusQuery trial = q;
    trial.constraints = subset;
    return replayQuery(eb, trial) == q.verdict;
  };

  if (holds({})) return {};
  std::vector<expr::ExprRef> cur = q.constraints;
  std::size_t n = std::min<std::size_t>(2, cur.size());
  while (cur.size() >= 2) {
    const std::size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    // Reduce to one chunk.
    for (std::size_t i = 0; i * chunk < cur.size() && !reduced; ++i) {
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(lo + chunk, cur.size());
      if (hi - lo == cur.size()) continue;
      std::vector<expr::ExprRef> subset(cur.begin() + static_cast<long>(lo),
                                        cur.begin() + static_cast<long>(hi));
      if (holds(subset)) {
        cur = std::move(subset);
        n = 2;
        reduced = true;
      }
    }
    // Reduce to a complement.
    for (std::size_t i = 0; i * chunk < cur.size() && !reduced; ++i) {
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(lo + chunk, cur.size());
      std::vector<expr::ExprRef> complement;
      complement.reserve(cur.size() - (hi - lo));
      complement.insert(complement.end(), cur.begin(),
                        cur.begin() + static_cast<long>(lo));
      complement.insert(complement.end(),
                        cur.begin() + static_cast<long>(hi), cur.end());
      if (complement.size() < cur.size() && holds(complement)) {
        cur = std::move(complement);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;  // granularity maxed out: 1-minimal
      n = std::min(cur.size(), n * 2);
    }
  }
  return cur;
}

}  // namespace rvsym::solver
