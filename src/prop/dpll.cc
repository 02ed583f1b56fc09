#include "prop/dpll.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "obs/metrics.h"

namespace diffc::prop {

namespace {

// Registry handles for the DPLL solver. The search loop only touches the
// local `stats_` struct; these aggregates are flushed once per Solve() call.
struct DpllMetrics {
  obs::Counter* solves;
  obs::Counter* decisions;
  obs::Counter* propagations;
  obs::Counter* conflicts;

  DpllMetrics() {
    obs::Registry& r = obs::Registry::Global();
    solves = r.GetCounter("diffc_dpll_solves_total", "DPLL Solve() calls.");
    decisions = r.GetCounter("diffc_dpll_decisions_total", "DPLL branch decisions.");
    propagations = r.GetCounter("diffc_dpll_propagations_total",
                                "DPLL implied assignments propagated.");
    conflicts = r.GetCounter("diffc_dpll_conflicts_total", "DPLL conflicts analyzed.");
  }
};

DpllMetrics& Metrics() {
  static DpllMetrics* m = new DpllMetrics();
  return *m;
}

// Flushes the per-call stats to the registry on every exit path of Solve().
class FlushStatsOnExit {
 public:
  explicit FlushStatsOnExit(const SolverStats* stats) : stats_(stats) {}
  ~FlushStatsOnExit() {
    if (!obs::MetricsEnabled()) return;
    DpllMetrics& m = Metrics();
    m.solves->Inc();
    if (stats_->decisions > 0) m.decisions->Inc(stats_->decisions);
    if (stats_->propagations > 0) m.propagations->Inc(stats_->propagations);
    if (stats_->conflicts > 0) m.conflicts->Inc(stats_->conflicts);
  }

 private:
  const SolverStats* stats_;
};

}  // namespace

Result<CompiledCnf> CompiledCnf::Compile(const Cnf& cnf) {
  CompiledCnf out(cnf.num_vars);
  for (const Clause& clause : cnf.clauses) {
    Status s = out.AddClause(clause);
    if (!s.ok()) return s;
  }
  return out;
}

void CompiledCnf::Reset(int num_vars) {
  num_vars_ = num_vars;
  lits_.clear();
  ends_.clear();
}

Status CompiledCnf::AddClause(std::span<const Literal> clause) {
  const std::size_t begin = lits_.size();
  bool tautology = false;
  for (Literal lit : clause) {
    if (lit == 0 || std::abs(lit) > num_vars_) {
      lits_.resize(begin);
      return Status::InvalidArgument("literal out of range in CNF");
    }
    const int l = Encode(lit);
    const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(begin);
    if (std::find(first, lits_.end(), l ^ 1) != lits_.end()) tautology = true;
    if (std::find(first, lits_.end(), l) == lits_.end()) lits_.push_back(l);
  }
  if (tautology) {
    lits_.resize(begin);
  } else {
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
  }
  return Status::Ok();
}

void CompiledCnf::AddClauseUnchecked(std::span<const Literal> clause) {
  [[maybe_unused]] const std::size_t begin = lits_.size();
  for (Literal lit : clause) {
    assert(lit != 0 && std::abs(lit) <= num_vars_);
    const int l = Encode(lit);
    assert(std::find(lits_.begin() + static_cast<std::ptrdiff_t>(begin), lits_.end(), l) ==
               lits_.end() &&
           std::find(lits_.begin() + static_cast<std::ptrdiff_t>(begin), lits_.end(), l ^ 1) ==
               lits_.end());
    lits_.push_back(l);
  }
  ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
}

int DpllSolver::WatchLastClause() {
  const int ci = static_cast<int>(clause_start_.size()) - 2;
  const Lit* c = ClauseBegin(ci);
  watches_[c[0]].push_back(ci);
  if (ClauseSize(ci) > 1) watches_[c[1]].push_back(ci);
  return ci;
}

void DpllSolver::Enqueue(Lit l, int reason) {
  const int var = VarOf(l);
  assignment_[var] = SignOf(l) ? kFalse : kTrue;
  saved_phase_[var] = SignOf(l);
  level_[var] = static_cast<int>(trail_limits_.size());
  reason_[var] = reason;
  trail_.push_back(l);
}

int DpllSolver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit assigned = trail_[propagate_head_++];
    ++stats_.propagations;
    const Lit false_lit = Negate(assigned);  // Literals watching this are now false.
    std::vector<int>& watch_list = watches_[false_lit];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const int ci = watch_list[i];
      Lit* c = ClauseBegin(ci);
      const std::uint32_t size = ClauseSize(ci);
      // Normalize: watched literals are c[0] and c[1]; put false_lit at c[1].
      if (size == 1) {
        // Unit clause re-propagated: conflict iff its literal is false.
        if (LitValue(c[0]) == kFalse) {
          for (std::size_t j = i; j < watch_list.size(); ++j) {
            watch_list[keep++] = watch_list[j];
          }
          watch_list.resize(keep);
          return ci;
        }
        watch_list[keep++] = ci;
        continue;
      }
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      if (LitValue(c[0]) == kTrue) {
        watch_list[keep++] = ci;  // Clause satisfied; keep the watch.
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (LitValue(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watches_[c[1]].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;  // Watch moved: drop from this list.
      watch_list[keep++] = ci;
      if (LitValue(c[0]) == kFalse) {
        // Conflict: restore the remainder of the watch list first.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        return ci;
      }
      Enqueue(c[0], ci);  // Unit: propagate.
    }
    watch_list.resize(keep);
  }
  return -1;
}

void DpllSolver::BumpVar(int var) {
  activity_[var] += activity_increment_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    activity_increment_ *= 1e-100;
  }
}

void DpllSolver::DecayActivities() { activity_increment_ /= 0.95; }

int DpllSolver::Analyze(int conflict_clause) {
  learned_.clear();
  learned_.push_back(0);  // Placeholder for the asserting (UIP) literal.
  int counter = 0;  // Literals of the current level still to resolve.
  Lit p = -1;
  int clause = conflict_clause;
  std::size_t trail_index = trail_.size();
  const int current_level = static_cast<int>(trail_limits_.size());

  while (true) {
    const Lit* c = ClauseBegin(clause);
    const std::uint32_t size = ClauseSize(clause);
    // Skip c[0] when it is the literal we just resolved on.
    for (std::uint32_t i = (p == -1 ? 0 : 1); i < size; ++i) {
      const Lit q = c[i];
      const int v = VarOf(q);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = true;
      BumpVar(v);
      if (level_[v] == current_level) {
        ++counter;
      } else {
        learned_.push_back(q);
      }
    }
    // Find the next current-level literal on the trail to resolve.
    while (!seen_[VarOf(trail_[trail_index - 1])]) --trail_index;
    --trail_index;
    p = trail_[trail_index];
    seen_[VarOf(p)] = false;
    --counter;
    if (counter == 0) break;
    clause = reason_[VarOf(p)];
  }
  learned_[0] = Negate(p);  // The first UIP, asserted after backjumping.
  // Every current-level mark was cleared on resolution; clear the rest.
  for (std::size_t i = 1; i < learned_.size(); ++i) seen_[VarOf(learned_[i])] = false;

  // Backjump level: the highest level among the other learned literals.
  int backjump = 0;
  for (std::size_t i = 1; i < learned_.size(); ++i) {
    backjump = std::max(backjump, level_[VarOf(learned_[i])]);
  }
  // Watch invariant: learned_[1] must be a highest-level literal.
  for (std::size_t i = 2; i < learned_.size(); ++i) {
    if (level_[VarOf(learned_[i])] > level_[VarOf(learned_[1])]) {
      std::swap(learned_[1], learned_[i]);
    }
  }
  return backjump;
}

void DpllSolver::Backtrack(int target_level) {
  if (static_cast<int>(trail_limits_.size()) <= target_level) return;
  const std::size_t new_size = trail_limits_[target_level];
  for (std::size_t i = new_size; i < trail_.size(); ++i) {
    const int var = VarOf(trail_[i]);
    assignment_[var] = kUnassigned;
    reason_[var] = -1;
  }
  trail_.resize(new_size);
  trail_limits_.resize(target_level);
  propagate_head_ = new_size;
}

int DpllSolver::PickBranchVariable() const {
  int best = -1;
  for (int v = 0; v < num_vars_; ++v) {
    if (assignment_[v] == kUnassigned && (best == -1 || activity_[v] > activity_[best])) {
      best = v;
    }
  }
  return best;
}

void DpllSolver::Reset(int num_vars) {
  num_vars_ = num_vars;
  lits_.clear();
  clause_start_.assign(1, 0);
  const auto literals = static_cast<std::size_t>(2 * num_vars);
  if (watches_.size() < literals) watches_.resize(literals);
  for (std::size_t l = 0; l < literals; ++l) watches_[l].clear();
  assignment_.assign(num_vars, kUnassigned);
  saved_phase_.assign(num_vars, true);  // Prefer false, like MiniSat.
  level_.assign(num_vars, 0);
  reason_.assign(num_vars, -1);
  seen_.assign(num_vars, false);
  trail_.clear();
  trail_limits_.clear();
  propagate_head_ = 0;
  activity_.assign(num_vars, 0.0);
  activity_increment_ = 1.0;
}

bool DpllSolver::Load(const CompiledCnf& cnf) {
  const auto offset = static_cast<std::uint32_t>(lits_.size());
  lits_.insert(lits_.end(), cnf.lits_.begin(), cnf.lits_.end());
  std::uint32_t begin = 0;
  for (const std::uint32_t end : cnf.ends_) {
    if (end == begin) return false;  // The empty clause.
    clause_start_.push_back(offset + end);
    const int ci = WatchLastClause();
    // Top-level units propagate before the search starts.
    if (end - begin == 1) {
      const Lit unit = ClauseBegin(ci)[0];
      if (LitValue(unit) == kFalse) return false;
      if (LitValue(unit) == kUnassigned) Enqueue(unit, ci);
    }
    begin = end;
  }
  return true;
}

Result<SatResult> DpllSolver::Solve(const Cnf& cnf) {
  Result<CompiledCnf> compiled = CompiledCnf::Compile(cnf);
  if (!compiled.ok()) return compiled.status();
  return Solve(*compiled, CompiledCnf());
}

Result<SatResult> DpllSolver::Solve(const CompiledCnf& base, const CompiledCnf& overlay) {
  stats_ = SolverStats{};
  FlushStatsOnExit flush(&stats_);
  if (overlay.num_vars() > base.num_vars()) {
    return Status::InvalidArgument("CNF overlay has more variables than its base");
  }
  Reset(base.num_vars());
  if (!Load(overlay) || !Load(base) || Propagate() != -1) return SatResult{};

  std::uint64_t conflicts_until_restart = 100;
  std::uint64_t conflicts_since_restart = 0;

  while (true) {
    // Cooperative check-point: amortized inside StopCheck, so this is a
    // branch and a decrement on all but every stride-th step.
    if (stop_ != nullptr) {
      Status s = stop_->Check();
      if (!s.ok()) return s;
    }
    const int conflict = Propagate();
    if (conflict != -1) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) return SatResult{};  // Conflict at level 0.
      const int backjump = Analyze(conflict);
      Backtrack(backjump);
      lits_.insert(lits_.end(), learned_.begin(), learned_.end());
      clause_start_.push_back(static_cast<std::uint32_t>(lits_.size()));
      Enqueue(learned_[0], WatchLastClause());
      DecayActivities();
      continue;
    }
    if (conflicts_since_restart >= conflicts_until_restart) {
      conflicts_since_restart = 0;
      conflicts_until_restart = conflicts_until_restart * 3 / 2;
      Backtrack(0);
      continue;
    }
    const int var = PickBranchVariable();
    if (var == -1) {
      // Complete assignment, no conflict: model.
      SatResult result;
      result.satisfiable = true;
      result.model.resize(num_vars_);
      for (int v = 0; v < num_vars_; ++v) result.model[v] = assignment_[v] == kTrue;
      return result;
    }
    if (++stats_.decisions > max_decisions_) {
      return Status::ResourceExhausted("DPLL decision budget exceeded");
    }
    trail_limits_.push_back(static_cast<int>(trail_.size()));
    Enqueue(2 * var + (saved_phase_[var] ? 1 : 0), -1);
  }
}

}  // namespace diffc::prop
