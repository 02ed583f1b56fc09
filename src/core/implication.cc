#include "core/implication.h"

#include <span>
#include <string>

#include "lattice/decomposition.h"
#include "prop/cnf.h"
#include "prop/implication_constraint.h"
#include "util/failpoint.h"

namespace diffc {

bool InConstraintLattice(const ConstraintSet& premises, const ItemSet& u) {
  for (const DifferentialConstraint& p : premises) {
    if (p.lhs().IsSubsetOf(u) && !p.rhs().SomeMemberSubsetOf(u)) return true;
  }
  return false;
}

Status ValidateUniverse(int n, const ConstraintSet& premises,
                        const DifferentialConstraint* goal) {
  if (n < 0 || n > 64) return Status::InvalidArgument("universe size must be in [0, 64]");
  auto outside = [n](const std::string& what) {
    return Status::InvalidArgument(what + " has attributes outside the " + std::to_string(n) +
                                   "-attribute universe");
  };
  for (std::size_t i = 0; i < premises.size(); ++i) {
    if (!premises[i].InUniverse(n)) return outside("premise " + std::to_string(i));
  }
  if (goal != nullptr && !goal->InUniverse(n)) return outside("goal");
  return Status::Ok();
}

Result<ImplicationOutcome> CheckImplicationExhaustive(int n, const ConstraintSet& premises,
                                                      const DifferentialConstraint& goal,
                                                      int max_free_bits, StopCheck* stop) {
  Status valid = ValidateUniverse(n, premises, &goal);
  if (!valid.ok()) return valid;
  const int free_bits = n - goal.lhs().size();
  if (free_bits > max_free_bits) {
    return Status::ResourceExhausted("exhaustive implication over " +
                                     std::to_string(free_bits) + " free attributes");
  }
  ImplicationOutcome out;
  out.SetImplied();
  // Manual superset walk (rather than ForEachSuperset) so a counterexample
  // or a fired stop condition breaks out without visiting the remaining
  // 2^free_bits - k supersets.
  const Mask fixed = goal.lhs().bits();
  const Mask free = FullMask(n) & ~fixed;
  Mask sub = free;
  while (true) {
    if (stop != nullptr) {
      Status s = stop->Check();
      if (!s.ok()) return s;
    }
    ItemSet u(fixed | sub);
    if (!goal.rhs().SomeMemberSubsetOf(u) && !InConstraintLattice(premises, u)) {
      out.SetNotImplied(u);
      break;
    }
    if (sub == 0) break;
    sub = (sub - 1) & free;
  }
  return out;
}

namespace {

// Emits the Proposition 5.4 premise clauses over `n` attributes, one
// `EmitImplicationConstraintClauses` block per premise with auxiliaries
// numbered consecutively across blocks, into `compiled` (reset first) and,
// when `readable` is non-null, appends each one to it as well. Returns the
// variable count. The caller has validated the universe.
int CompilePremises(int n, const ConstraintSet& premises, prop::CompiledCnf* compiled,
                    std::vector<prop::Clause>* readable) {
  // Sizes first, so every buffer is allocated once: per premise, one
  // auxiliary and one definition clause per member attribute, and the main
  // clause over the left-hand side and the auxiliaries.
  int num_vars = n;
  std::size_t clauses = 0;
  std::size_t literals = 0;
  for (const DifferentialConstraint& p : premises) {
    std::size_t member_items = 0;
    for (const ItemSet& member : p.rhs().members()) {
      member_items += static_cast<std::size_t>(member.size());
    }
    num_vars += p.rhs().size();
    clauses += member_items + 1;
    literals += 2 * member_items + static_cast<std::size_t>(p.lhs().size() + p.rhs().size());
  }
  compiled->Reset(num_vars);
  compiled->Reserve(clauses, literals);
  if (readable != nullptr) readable->reserve(readable->size() + clauses);
  prop::Clause main_clause;
  int next_aux = n + 1;
  for (const DifferentialConstraint& p : premises) {
    next_aux += prop::EmitImplicationConstraintClauses(
        p.lhs(), p.rhs(), next_aux, &main_clause, [&](std::span<const prop::Literal> clause) {
          compiled->AddClauseUnchecked(clause);
          if (readable != nullptr) readable->emplace_back(clause.begin(), clause.end());
        });
  }
  return num_vars;
}

// The calling thread's solver, goal overlay and (for the uncached entry
// point) premise arena. Their buffers keep their capacity from one query
// to the next, so a warm query allocates only its answer.
struct SatScratch {
  prop::DpllSolver solver;
  prop::CompiledCnf premises;
  prop::CompiledCnf goal;
  prop::Clause member;
};

SatScratch& ThreadSatScratch() {
  thread_local SatScratch scratch;
  return scratch;
}

// Solves the goal as an overlay on the compiled premise arena `base` over
// `num_vars` variables (the first `n` of them attributes). `base` may be
// the scratch's own premise arena.
Result<ImplicationOutcome> SolveGoalOverlay(int n, int num_vars, const prop::CompiledCnf& base,
                                            const DifferentialConstraint& goal,
                                            prop::SolverStats* stats, std::uint64_t max_decisions,
                                            StopCheck* stop) {
  if (DIFFC_FAILPOINT("cnf/translate")) {
    return Status::Internal("failpoint cnf/translate: CNF translation failed");
  }
  SatScratch& scratch = ThreadSatScratch();
  prop::CompiledCnf& overlay = scratch.goal;
  overlay.Reset(num_vars);
  // U must contain the goal's left-hand side...
  ForEachBit(goal.lhs().bits(), [&](int a) {
    const prop::Literal u = a + 1;
    overlay.AddClauseUnchecked({&u, 1});
  });
  // ...and no goal member (so U ∈ L(X, Y)). An empty member yields the
  // empty clause: the goal is trivial and the CNF unsatisfiable, as wanted.
  for (const ItemSet& member : goal.rhs().members()) {
    scratch.member.clear();
    ForEachBit(member.bits(), [&](int y) { scratch.member.push_back(-(y + 1)); });
    overlay.AddClauseUnchecked(scratch.member);
  }

  prop::DpllSolver& solver = scratch.solver;
  solver.set_max_decisions(max_decisions);
  solver.set_stop(stop);
  Result<prop::SatResult> sat = solver.Solve(base, overlay);
  solver.set_stop(nullptr);
  if (stats != nullptr) *stats = solver.stats();
  if (!sat.ok()) return sat.status();

  ImplicationOutcome out;
  if (sat->satisfiable) {
    Mask u = 0;
    for (int i = 0; i < n; ++i) {
      if (sat->model[i]) u |= Mask{1} << i;
    }
    out.SetNotImplied(ItemSet(u));
  } else {
    out.SetImplied();
  }
  return out;
}

}  // namespace

PremiseTranslation TranslatePremises(int n, const ConstraintSet& premises) {
  PremiseTranslation out;
  out.n = n;
  out.num_vars = n;
  if (!ValidateUniverse(n, premises).ok()) {
    out.in_universe = false;
    return out;
  }
  out.num_vars = CompilePremises(n, premises, &out.compiled, &out.clauses);
  return out;
}

Result<ImplicationOutcome> CheckImplicationSat(int n, const ConstraintSet& premises,
                                               const DifferentialConstraint& goal,
                                               prop::SolverStats* stats) {
  Status valid = ValidateUniverse(n, premises, &goal);
  if (!valid.ok()) return valid;
  // Only the solver's arena: the readable clauses of `TranslatePremises`
  // would be built for nothing here. Same budget as the translated entry
  // point's default.
  prop::CompiledCnf& base = ThreadSatScratch().premises;
  const int num_vars = CompilePremises(n, premises, &base, nullptr);
  return SolveGoalOverlay(n, num_vars, base, goal, stats, 50'000'000, nullptr);
}

Result<ImplicationOutcome> CheckImplicationSatTranslated(
    int n, const PremiseTranslation& translation, const DifferentialConstraint& goal,
    prop::SolverStats* stats, std::uint64_t max_decisions, StopCheck* stop) {
  if (!translation.in_universe || translation.n != n) {
    return Status::InvalidArgument("premise translation is not over the " + std::to_string(n) +
                                   "-attribute universe");
  }
  Status valid = ValidateUniverse(n, {}, &goal);
  if (!valid.ok()) return valid;
  return SolveGoalOverlay(n, translation.num_vars, translation.compiled, goal, stats,
                          max_decisions, stop);
}

bool FdSubclassApplicable(const ConstraintSet& premises, const DifferentialConstraint& goal) {
  if (goal.rhs().size() != 1) return false;
  for (const DifferentialConstraint& p : premises) {
    if (p.rhs().size() != 1) return false;
  }
  return true;
}

FdPremiseIndex BuildFdPremiseIndex(const ConstraintSet& premises) {
  FdPremiseIndex index;
  for (const DifferentialConstraint& p : premises) {
    if (p.rhs().size() != 1) return index;  // eligible stays false.
  }
  index.eligible = true;
  index.fds.reserve(premises.size());
  for (const DifferentialConstraint& p : premises) {
    index.fds.emplace_back(p.lhs(), p.rhs().member(0));
  }
  return index;
}

ItemSet FdClosure(const FdPremiseIndex& index, ItemSet x) {
  // Attribute-set closure under the premises read as functional
  // dependencies X' -> Y'.
  ItemSet closure = x;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [lhs, rhs] : index.fds) {
      if (lhs.IsSubsetOf(closure) && !rhs.IsSubsetOf(closure)) {
        closure = closure.Union(rhs);
        changed = true;
      }
    }
  }
  return closure;
}

Result<ImplicationOutcome> CheckImplicationFdIndexed(int n, const FdPremiseIndex& index,
                                                     const DifferentialConstraint& goal) {
  // Unused: the FD closure works on attribute sets and never materializes
  // the universe; `n` is kept for signature parity with the other checkers.
  (void)n;
  if (!index.eligible || goal.rhs().size() != 1) {
    return Status::FailedPrecondition(
        "FD subclass requires single-member right-hand sides");
  }
  const ItemSet closure = FdClosure(index, goal.lhs());
  ImplicationOutcome out;
  if (goal.rhs().member(0).IsSubsetOf(closure)) {
    out.SetImplied();
  } else {
    out.SetNotImplied(closure);
  }
  return out;
}

Result<ImplicationOutcome> CheckImplicationFd(int n, const ConstraintSet& premises,
                                              const DifferentialConstraint& goal) {
  if (!FdSubclassApplicable(premises, goal)) {
    return Status::FailedPrecondition(
        "FD subclass requires single-member right-hand sides");
  }
  return CheckImplicationFdIndexed(n, BuildFdPremiseIndex(premises), goal);
}

Result<ImplicationOutcome> CheckImplication(int n, const ConstraintSet& premises,
                                            const DifferentialConstraint& goal) {
  Status valid = ValidateUniverse(n, premises, &goal);
  if (!valid.ok()) return valid;
  if (goal.IsTrivial()) {
    ImplicationOutcome out;
    out.SetImplied();
    return out;
  }
  if (FdSubclassApplicable(premises, goal)) {
    return CheckImplicationFd(n, premises, goal);
  }
  return CheckImplicationSat(n, premises, goal);
}

ConstraintSet DnfTautologyReduction(const prop::DnfFormula& f) {
  ConstraintSet out;
  out.reserve(f.conjuncts.size());
  for (const prop::DnfConjunct& c : f.conjuncts) {
    std::vector<ItemSet> members;
    ForEachBit(c.neg, [&](int q) { members.push_back(ItemSet::Singleton(q)); });
    out.push_back(DifferentialConstraint(ItemSet(c.pos), SetFamily(std::move(members))));
  }
  return out;
}

DifferentialConstraint TautologyGoal() {
  return DifferentialConstraint(ItemSet(), SetFamily());
}

}  // namespace diffc
