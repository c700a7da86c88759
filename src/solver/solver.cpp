#include "solver/solver.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "solver/corpus.hpp"
#include "solver/telemetry.hpp"

namespace rvsym::solver {

namespace {

/// Times one SAT solve into the per-path stats and (when attached) the
/// shared latency histogram. The identical microsecond value goes to
/// both, so per-path solve_us totals sum to the registry histogram's
/// total exactly.
class SolveTimer {
 public:
  SolveTimer(bool enabled, QueryStats& stats, obs::Histogram* h)
      : enabled_(enabled), stats_(stats), h_(h) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~SolveTimer() {
    if (!enabled_) return;
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    stats_.solve_us += us;
    if (h_) h_->record(us);
  }
  SolveTimer(const SolveTimer&) = delete;
  SolveTimer& operator=(const SolveTimer&) = delete;

 private:
  bool enabled_;
  QueryStats& stats_;
  obs::Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

PathSolver::PathSolver(expr::ExprBuilder& eb)
    : eb_(eb), blaster_(sat_, eb) {}

void PathSolver::attachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) return;
  check_latency_ = &registry->histogram("solver.check_us");
  m_cex_model_ = &registry->counter("solver.cex_model_hits");
  m_cex_core_ = &registry->counter("solver.cex_core_hits");
  m_rewrite_ = &registry->counter("solver.rewrite_decided");
  m_sliced_ = &registry->counter("solver.sliced_solves");
  timing_ = true;
}

bool PathSolver::addConstraint(const expr::ExprRef& cond) {
  constraints_.push_back(cond);
  if (hashingConstraints()) {
    const CanonHash ch = activeHasher()->hash(cond);
    constraint_set_hash_ = canonSetAdd(constraint_set_hash_, ch);
    constraint_hashes_.push_back(ch);
  }
  if (opts_.rewrite) expr::addEqualitySubst(eb_, cond, &subst_);
  if (opts_.slicing) {
    constraint_vars_.emplace_back();
    if (!cond->isConstant()) {
      std::vector<std::uint64_t>& vars = constraint_vars_.back();
      expr::collectVariableIds(cond, &vars);
      if (!vars.empty()) {
        const std::uint64_t root = ufFind(vars[0]);
        for (std::size_t j = 1; j < vars.size(); ++j)
          uf_parent_[ufFind(vars[j])] = root;
      }
    }
  }
  // The local model stays a witness of the whole set only if it also
  // satisfies the new conjunct (variables it does not mention read as 0,
  // the same extension expr::evaluate applies everywhere).
  if (local_model_valid_ && !cond->isConstant() &&
      expr::evaluate(cond, local_model_) != 1)
    local_model_valid_ = false;
  if (cond->isConstant()) return cond->constantValue() != 0;
  return true;  // bit-blasting deferred to flushBlast()
}

void PathSolver::flushBlast() {
  for (; blasted_count_ < constraints_.size(); ++blasted_count_) {
    const expr::ExprRef& c = constraints_[blasted_count_];
    if (c->isConstant()) {
      conj_lits_.push_back(kLitUndef);
      continue;
    }
    if (opts_.selectorMode()) {
      // Selector mode: the conjunct's literal is *assumed* per solve,
      // never asserted — the clause database stays pure Tseitin
      // definitions (satisfiable alone), which is what makes the final
      // conflict a sound core over the assumed conjuncts.
      const Lit l = blaster_.blastBool(c);
      conj_lits_.push_back(l);
      lit_to_conj_.emplace(l.x, blasted_count_);
      ++selector_conjuncts_;
    } else {
      conj_lits_.push_back(kLitUndef);
      blaster_.assertTrue(c);  // may make the solver not-okay
    }
  }
}

std::uint64_t PathSolver::ufFind(std::uint64_t v) {
  if (v >= uf_parent_.size()) {
    const std::uint64_t old = uf_parent_.size();
    uf_parent_.resize(static_cast<std::size_t>(v) + 1);
    for (std::uint64_t i = old; i <= v; ++i)
      uf_parent_[static_cast<std::size_t>(i)] = i;
  }
  while (uf_parent_[static_cast<std::size_t>(v)] != v) {
    uf_parent_[static_cast<std::size_t>(v)] =
        uf_parent_[static_cast<std::size_t>(
            uf_parent_[static_cast<std::size_t>(v)])];
    v = uf_parent_[static_cast<std::size_t>(v)];
  }
  return v;
}

void PathSolver::computeSlice(const expr::ExprRef& assumption,
                              std::vector<std::size_t>* out) {
  std::vector<std::uint64_t> avars;
  expr::collectVariableIds(assumption, &avars);
  std::vector<std::uint64_t> roots;
  for (const std::uint64_t v : avars) {
    const std::uint64_t r = ufFind(v);
    if (std::find(roots.begin(), roots.end(), r) == roots.end())
      roots.push_back(r);
  }
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (constraint_vars_[i].empty()) continue;
    // All variables of one conjunct were unioned when it was added, so
    // any one of them finds the conjunct's component.
    const std::uint64_t r = ufFind(constraint_vars_[i][0]);
    if (std::find(roots.begin(), roots.end(), r) != roots.end())
      out->push_back(i);
  }
}

expr::Assignment PathSolver::translateModel(const CexCache::Model& m) {
  expr::Assignment asg;
  CanonicalHasher* hasher = activeHasher();
  const std::uint64_t n = eb_.numVariables();
  for (std::uint64_t id = 0; id < n; ++id) {
    const auto v = m.get(hasher->hash(eb_.variableById(id)));
    if (v) asg.set(id, *v);
  }
  return asg;
}

void PathSolver::harvestLocalModel() {
  local_model_ = expr::Assignment();
  const std::uint64_t n = eb_.numVariables();
  for (std::uint64_t id = 0; id < n; ++id)
    local_model_.set(id, blaster_.modelValue(eb_.variableById(id)));
  local_model_valid_ = true;
}

void PathSolver::shareLocalModel(const CanonHash* assumption_hash) {
  if (!cex_ || !local_model_valid_ || !hashingConstraints()) return;
  CexCache::Model m;
  CanonicalHasher* hasher = activeHasher();
  const std::uint64_t n = eb_.numVariables();
  m.values.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t id = 0; id < n; ++id)
    m.values.emplace_back(hasher->hash(eb_.variableById(id)),
                          local_model_.get(id));
  if (assumption_hash)
    // The engine conjoins a Sat-checked assumption right away; seed the
    // successor set's entry so other paths/workers start with a witness.
    cex_->insertModel(canonSetAdd(constraint_set_hash_, *assumption_hash), m);
  cex_->insertModel(constraint_set_hash_, std::move(m));
}

void PathSolver::storeCore(Lit assumption_lit, const CanonHash* assumption_hash,
                           const std::vector<std::size_t>& solved_conjuncts) {
  if (!cex_ || !hashingConstraints()) return;
  std::vector<CanonHash> elems;
  bool minimized = false;
  if (opts_.unsat_cores && !sat_.conflict().empty()) {
    // Map the final conflict's assumption literals back to conjuncts.
    minimized = true;
    for (const Lit l : sat_.conflict()) {
      if (assumption_hash && l == assumption_lit) {
        elems.push_back(*assumption_hash);
        continue;
      }
      const auto it = lit_to_conj_.find(l.x);
      if (it == lit_to_conj_.end()) {
        elems.clear();
        minimized = false;  // unattributable literal: store unminimized
        break;
      }
      elems.push_back(constraint_hashes_[it->second]);
    }
  }
  if (!minimized) {
    // The full assumed element set is itself a valid (weaker) core.
    if (!solved_conjuncts.empty()) {
      for (const std::size_t idx : solved_conjuncts)
        elems.push_back(constraint_hashes_[idx]);
    } else {
      for (std::size_t i = 0; i < constraints_.size(); ++i)
        if (!constraints_[i]->isConstant())
          elems.push_back(constraint_hashes_[i]);
    }
    if (assumption_hash) elems.push_back(*assumption_hash);
  }
  cex_->insertCore(std::move(elems));
}

void PathSolver::recordAnswered(const CanonHash& key,
                                const expr::ExprRef& assumption,
                                CheckResult verdict, int disposition) {
  if (!telemetry_) return;
  SolverTelemetry::Query q;
  q.hash = key;
  q.expr_nodes = assumption ? countUniqueNodes({assumption})
                            : countUniqueNodes(constraints_);
  q.verdict = verdict;
  q.disposition = static_cast<SolverTelemetry::Disposition>(disposition);
  telemetry_->record(q);
}

CheckResult PathSolver::check(const expr::ExprRef& assumption,
                              std::uint64_t max_conflicts) {
  ++stats_.checks;
  if (assumption->isConstant()) {
    ++stats_.constant_fastpath;
    if (assumption->constantValue() == 0) {
      ++stats_.unsat;
      return CheckResult::Unsat;
    }
    // Delegates before opening the "solver" phase so the profiler never
    // sees a nested solver;solver stack.
    return checkPath(max_conflicts);
  }
  const obs::PhaseTimer phase(profiler_, "solver");
  if (!sat_.okay()) {
    ++stats_.unsat;
    return CheckResult::Unsat;
  }

  CanonHash a_hash;
  CanonHash key;
  if (hashingConstraints()) {
    a_hash = activeHasher()->hash(assumption);
    key = canonQueryKey(constraint_set_hash_, a_hash);
  }

  // Layer 1 — exact-hash cache: the verdict for (constraint set,
  // assumption) is a semantic fact; any prior path or worker that solved
  // the same query answers this one for free.
  if (cache_) {
    if (const std::optional<bool> hit = cache_->lookup(key)) {
      ++stats_.cache_hits;
      ++(*hit ? stats_.sat : stats_.unsat);
      recordAnswered(key, assumption,
                     *hit ? CheckResult::Sat : CheckResult::Unsat,
                     static_cast<int>(SolverTelemetry::Disposition::Hit));
      return *hit ? CheckResult::Sat : CheckResult::Unsat;
    }
    ++stats_.cache_misses;
  }

  // Budgeted checks bypass the acceleration layers entirely: an Unknown
  // is budget-dependent and must come from the real solver.
  const bool accel = max_conflicts == 0;

  // Layer 2a — counterexample cache, Sat side: a known model of the
  // current set decides the assumption by evaluation alone.
  if (accel && opts_.cex_cache) {
    bool witnessed =
        local_model_valid_ && expr::evaluate(assumption, local_model_) == 1;
    if (!witnessed && cex_) {
      if (const auto m = cex_->lookupModel(constraint_set_hash_)) {
        expr::Assignment asg = translateModel(*m);
        if (expr::evaluate(assumption, asg) == 1) {
          local_model_ = std::move(asg);
          local_model_valid_ = true;
          witnessed = true;
        }
      }
    }
    if (witnessed) {
      ++stats_.sat;
      ++stats_.cex_model_hits;
      if (m_cex_model_) m_cex_model_->add(1);
      if (cache_) cache_->insert(key, true);
      recordAnswered(key, assumption, CheckResult::Sat,
                     static_cast<int>(SolverTelemetry::Disposition::CexModel));
      return CheckResult::Sat;
    }
  }

  // Layer 2b — counterexample cache, Unsat side: a stored core that is a
  // subset of {conjuncts} ∪ {assumption} proves the query UNSAT.
  if (accel && opts_.cex_cache && cex_ && hashingConstraints()) {
    std::vector<CanonHash> elems = constraint_hashes_;
    elems.push_back(a_hash);
    if (cex_->subsumesUnsat(elems)) {
      ++stats_.unsat;
      ++stats_.cex_core_hits;
      if (m_cex_core_) m_cex_core_->add(1);
      if (cache_) cache_->insert(key, false);
      recordAnswered(key, assumption, CheckResult::Unsat,
                     static_cast<int>(SolverTelemetry::Disposition::CexCore));
      return CheckResult::Unsat;
    }
  }

  // Layer 3 — pre-bitblast rewrite: under the equality environment the
  // constraint set implies, the assumption may fold to a constant.
  if (accel && opts_.rewrite) {
    const expr::ExprRef ra = expr::rewriteExpr(eb_, assumption, subst_);
    if (ra->isConstant()) {
      ++stats_.rewrite_decided;
      if (m_rewrite_) m_rewrite_->add(1);
      if (ra->constantValue() == 0) {
        // Constraints ⊨ ¬assumption, so the conjunction is UNSAT.
        ++stats_.unsat;
        if (cache_) cache_->insert(key, false);
        recordAnswered(key, assumption, CheckResult::Unsat,
                       static_cast<int>(SolverTelemetry::Disposition::Rewrite));
        return CheckResult::Unsat;
      }
      // Constraints ⊨ assumption: satisfiable iff the path itself is.
      const CheckResult r = checkPath(max_conflicts);
      if (cache_ && r != CheckResult::Unknown)
        cache_->insert(key, r == CheckResult::Sat);
      return r;
    }
  }

  // Layer 4 — SAT solve.
  flushBlast();
  if (!sat_.okay()) {
    ++stats_.unsat;
    if (cache_) cache_->insert(key, false);
    return CheckResult::Unsat;
  }

  std::uint64_t bitblast_us = 0;
  Lit a;
  if (telemetry_) {
    const auto t0 = std::chrono::steady_clock::now();
    a = blaster_.blastBool(assumption);
    bitblast_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    a = blaster_.blastBool(assumption);
  }

  std::vector<std::size_t> solved_conjuncts;
  std::vector<Lit> assumps;
  bool sliced = false;
  if (opts_.selectorMode()) {
    if (accel && opts_.slicing) {
      computeSlice(assumption, &solved_conjuncts);
      sliced = solved_conjuncts.size() < selector_conjuncts_;
    } else {
      for (std::size_t i = 0; i < constraints_.size(); ++i)
        if (!(conj_lits_[i] == kLitUndef)) solved_conjuncts.push_back(i);
    }
    assumps.reserve(solved_conjuncts.size() + 1);
    for (const std::size_t idx : solved_conjuncts)
      assumps.push_back(conj_lits_[idx]);
  }
  assumps.push_back(a);

  const std::uint64_t solve_us_before = stats_.solve_us;
  SatSolver::Result sr;
  {
    const SolveTimer timer(timing_, stats_, check_latency_);
    ++stats_.sat_solves;
    sr = sat_.solve(assumps, max_conflicts);
  }

  if (sr == SatSolver::Result::Sat && sliced) {
    // A sliced Sat only answers the whole query if the untouched
    // conjuncts hold too. They share no variables with the slice, so a
    // merged assignment — slice variables from the fresh SAT model, the
    // rest from the local model (or 0) — either witnesses the whole set
    // or we fall back to solving with every conjunct assumed.
    std::vector<char> in_slice(constraints_.size(), 0);
    std::unordered_set<std::uint64_t> slice_vars;
    for (const std::size_t idx : solved_conjuncts) {
      in_slice[idx] = 1;
      for (const std::uint64_t v : constraint_vars_[idx]) slice_vars.insert(v);
    }
    {
      std::vector<std::uint64_t> avars;
      expr::collectVariableIds(assumption, &avars);
      for (const std::uint64_t v : avars) slice_vars.insert(v);
    }
    expr::Assignment merged;
    const std::uint64_t n = eb_.numVariables();
    for (std::uint64_t id = 0; id < n; ++id)
      merged.set(id, slice_vars.count(id) != 0
                         ? blaster_.modelValue(eb_.variableById(id))
                         : (local_model_valid_ ? local_model_.get(id) : 0));
    bool whole = true;
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (in_slice[i]) continue;
      if (expr::evaluate(constraints_[i], merged) != 1) {
        whole = false;
        break;
      }
    }
    if (whole) {
      local_model_ = std::move(merged);
      local_model_valid_ = true;
    } else {
      solved_conjuncts.clear();
      assumps.clear();
      for (std::size_t i = 0; i < constraints_.size(); ++i)
        if (!(conj_lits_[i] == kLitUndef)) solved_conjuncts.push_back(i);
      for (const std::size_t idx : solved_conjuncts)
        assumps.push_back(conj_lits_[idx]);
      assumps.push_back(a);
      {
        const SolveTimer timer(timing_, stats_, check_latency_);
        ++stats_.sat_solves;
        sr = sat_.solve(assumps, max_conflicts);
      }
      sliced = false;
      if (sr == SatSolver::Result::Sat) harvestLocalModel();
    }
  } else if (sr == SatSolver::Result::Sat && accel &&
             (opts_.cex_cache || opts_.slicing)) {
    // The assumed set covered every conjunct: the incremental model is a
    // whole-set witness.
    harvestLocalModel();
  }
  if (sliced) {
    ++stats_.sliced_solves;
    if (m_sliced_) m_sliced_->add(1);
  }

  CheckResult verdict;
  switch (sr) {
    case SatSolver::Result::Sat:
      ++stats_.sat;
      if (cache_) cache_->insert(key, true);
      if (accel && opts_.cex_cache && local_model_valid_)
        shareLocalModel(hashingConstraints() ? &a_hash : nullptr);
      verdict = CheckResult::Sat;
      break;
    case SatSolver::Result::Unsat:
      ++stats_.unsat;
      if (cache_) cache_->insert(key, false);
      if (accel && opts_.cex_cache)
        storeCore(a, hashingConstraints() ? &a_hash : nullptr,
                  solved_conjuncts);
      verdict = CheckResult::Unsat;
      break;
    default:
      ++stats_.unknown;
      // Budget-dependent — never cached.
      verdict = CheckResult::Unknown;
      break;
  }


  if (telemetry_) {
    SolverTelemetry::Query q;
    q.hash = key;
    q.expr_nodes = countUniqueNodes({assumption});
    q.sat_vars = static_cast<std::uint64_t>(sat_.numVars());
    q.sat_clauses = sat_.numProblemClauses();
    q.bitblast_us = bitblast_us;
    q.sat_us = stats_.solve_us - solve_us_before;
    q.verdict = verdict;
    q.disposition = sliced   ? SolverTelemetry::Disposition::Sliced
                    : cache_ ? SolverTelemetry::Disposition::Miss
                             : SolverTelemetry::Disposition::Uncached;
    if (telemetry_->record(q))
      telemetry_->dump(q, constraints_, assumption, sat_.exportDimacs(assumps));
  }
  return verdict;
}

CheckResult PathSolver::checkPath(std::uint64_t max_conflicts) {
  const obs::PhaseTimer phase(profiler_, "solver");
  if (!sat_.okay()) {
    ++stats_.unsat;
    return CheckResult::Unsat;
  }
  const bool accel = max_conflicts == 0;

  // Counterexample cache: a witness of exactly this set answers Sat
  // without touching the solver; a stored core that is a subset of the
  // conjuncts answers Unsat.
  if (accel && opts_.cex_cache) {
    bool witnessed = local_model_valid_;
    if (!witnessed && cex_) {
      if (const auto m = cex_->lookupModel(constraint_set_hash_)) {
        local_model_ = translateModel(*m);
        local_model_valid_ = true;
        witnessed = true;
      }
    }
    if (witnessed) {
      ++stats_.sat;
      ++stats_.cex_model_hits;
      if (m_cex_model_) m_cex_model_->add(1);
      recordAnswered(canonQueryKey(constraint_set_hash_, CanonHash{}), nullptr,
                     CheckResult::Sat,
                     static_cast<int>(SolverTelemetry::Disposition::CexModel));
      return CheckResult::Sat;
    }
    if (cex_ && hashingConstraints() && cex_->subsumesUnsat(constraint_hashes_)) {
      ++stats_.unsat;
      ++stats_.cex_core_hits;
      if (m_cex_core_) m_cex_core_->add(1);
      recordAnswered(canonQueryKey(constraint_set_hash_, CanonHash{}), nullptr,
                     CheckResult::Unsat,
                     static_cast<int>(SolverTelemetry::Disposition::CexCore));
      return CheckResult::Unsat;
    }
  }

  flushBlast();
  if (!sat_.okay()) {
    ++stats_.unsat;
    return CheckResult::Unsat;
  }
  std::vector<std::size_t> solved_conjuncts;
  std::vector<Lit> assumps;
  if (opts_.selectorMode()) {
    for (std::size_t i = 0; i < constraints_.size(); ++i)
      if (!(conj_lits_[i] == kLitUndef)) solved_conjuncts.push_back(i);
    assumps.reserve(solved_conjuncts.size());
    for (const std::size_t idx : solved_conjuncts)
      assumps.push_back(conj_lits_[idx]);
  }
  const std::uint64_t solve_us_before = stats_.solve_us;
  SatSolver::Result sr;
  {
    const SolveTimer timer(timing_, stats_, check_latency_);
    ++stats_.sat_solves;
    sr = sat_.solve(assumps, max_conflicts);
  }
  CheckResult verdict;
  switch (sr) {
    case SatSolver::Result::Sat:
      ++stats_.sat;
      if (accel && (opts_.cex_cache || opts_.slicing)) {
        harvestLocalModel();
        if (opts_.cex_cache) shareLocalModel(nullptr);
      }
      verdict = CheckResult::Sat;
      break;
    case SatSolver::Result::Unsat:
      ++stats_.unsat;
      if (accel && opts_.cex_cache)
        storeCore(kLitUndef, nullptr, solved_conjuncts);
      verdict = CheckResult::Unsat;
      break;
    default:
      ++stats_.unknown;
      verdict = CheckResult::Unknown;
      break;
  }
  if (telemetry_) {
    SolverTelemetry::Query q;
    // Path-feasibility query: the key is the constraint set alone.
    q.hash = canonQueryKey(constraint_set_hash_, CanonHash{});
    q.expr_nodes = countUniqueNodes(constraints_);
    q.sat_vars = static_cast<std::uint64_t>(sat_.numVars());
    q.sat_clauses = sat_.numProblemClauses();
    q.sat_us = stats_.solve_us - solve_us_before;
    q.verdict = verdict;
    if (telemetry_->record(q))
      telemetry_->dump(q, constraints_, nullptr, sat_.exportDimacs(assumps));
  }
  return verdict;
}

std::optional<expr::Assignment> PathSolver::model(
    const expr::ExprRef& assumption) {
  const obs::PhaseTimer phase(profiler_, "solver");
  ++stats_.model_queries;
  if (!sat_.okay()) return std::nullopt;
  if (assumption && assumption->isConstant() && assumption->constantValue() == 0)
    return std::nullopt;

  // Canonical model: a fresh solver over the constraint set alone, so the
  // assignment depends only on (constraint set, assumption) — never on
  // the feasibility checks (or cache hits) that preceded it. This keeps
  // concretized values and test vectors deterministic across worker
  // counts, schedules, cache states and SolverOptions.
  SatSolver fresh;
  BitBlaster fresh_blaster(fresh, eb_);
  for (const expr::ExprRef& c : constraints_) {
    if (c->isConstant()) {
      if (c->constantValue() == 0) return std::nullopt;
      continue;
    }
    if (!fresh_blaster.assertTrue(c)) return std::nullopt;
  }
  std::vector<Lit> assumptions;
  if (assumption && !assumption->isConstant())
    assumptions.push_back(fresh_blaster.blastBool(assumption));
  if (fresh.solve(assumptions) != SatSolver::Result::Sat) return std::nullopt;

  expr::Assignment asg;
  for (std::uint64_t id = 0; id < eb_.numVariables(); ++id) {
    const expr::ExprRef& v = eb_.variableById(id);
    asg.set(id, fresh_blaster.modelValue(v));
  }
  return asg;
}

}  // namespace rvsym::solver
