#ifndef DIFFC_PROP_DPLL_H_
#define DIFFC_PROP_DPLL_H_

#include <cstdint>
#include <vector>

#include "prop/cnf.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc::prop {

/// Outcome of a satisfiability call.
struct SatResult {
  /// True iff a model was found.
  bool satisfiable = false;
  /// When satisfiable: one model, indexed by variable.
  std::vector<bool> model;
};

/// Counters describing the work a solve performed.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
};

/// A DPLL satisfiability solver with conflict-driven clause learning:
/// two-watched-literal unit propagation, first-UIP conflict analysis with
/// non-chronological backjumping, VSIDS-style activity ordering with phase
/// saving, and geometric restarts.
///
/// This is the decision procedure behind the coNP implication checker
/// (Proposition 5.5): non-implication of a differential constraint is
/// encoded as a satisfiable CNF whose model is a counterexample set `U`.
/// The solver is deliberately dependency-free and small; instances arising
/// from constraint implication have one variable per attribute plus one
/// auxiliary variable per right-hand-side member.
class DpllSolver {
 public:
  /// Creates a solver. `max_decisions` bounds the search; Solve returns
  /// ResourceExhausted when exceeded.
  explicit DpllSolver(std::uint64_t max_decisions = 50'000'000)
      : max_decisions_(max_decisions) {}

  /// Installs a cooperative stop condition, checked (amortized) once per
  /// search step; Solve returns its DeadlineExceeded / Cancelled status
  /// when it fires mid-search. Non-owning; `stop` must outlive Solve.
  /// Pass nullptr to detach.
  void set_stop(StopCheck* stop) { stop_ = stop; }

  /// Decides satisfiability of `cnf`. The returned model (when satisfiable)
  /// satisfies every clause; `Cnf::IsSatisfiedBy` re-checks it in tests.
  Result<SatResult> Solve(const Cnf& cnf);

  /// Statistics of the most recent Solve call: branch decisions, implied
  /// assignments, and conflicts analyzed.
  const SolverStats& stats() const { return stats_; }

 private:
  // Internal literal encoding: 2*var for positive, 2*var+1 for negative.
  using Lit = int;
  static Lit Encode(Literal lit) {
    int var = lit > 0 ? lit - 1 : -lit - 1;
    return 2 * var + (lit < 0 ? 1 : 0);
  }
  static Lit Negate(Lit l) { return l ^ 1; }
  static int VarOf(Lit l) { return l >> 1; }
  static bool SignOf(Lit l) { return l & 1; }  // true = negative.

  enum : std::int8_t { kUnassigned = -1, kFalse = 0, kTrue = 1 };

  std::int8_t LitValue(Lit l) const {
    std::int8_t v = assignment_[VarOf(l)];
    if (v == kUnassigned) return kUnassigned;
    return (v == kTrue) != SignOf(l) ? kTrue : kFalse;
  }

  void Enqueue(Lit l, int reason);
  // Returns the index of a conflicting clause, or -1.
  int Propagate();
  // First-UIP analysis; fills `learned` (asserting literal first) and
  // returns the backjump level.
  int Analyze(int conflict_clause, std::vector<Lit>& learned);
  void Backtrack(int level);
  void BumpVar(int var);
  void DecayActivities();
  int PickBranchVariable() const;
  void AddWatchedClause(int clause_index);

  std::uint64_t max_decisions_;
  SolverStats stats_;
  StopCheck* stop_ = nullptr;

  int num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  std::vector<std::vector<int>> watches_;  // Per encoded literal.
  std::vector<std::int8_t> assignment_;    // Per variable.
  std::vector<bool> saved_phase_;          // Per variable (true = negative).
  std::vector<int> level_;                 // Per variable.
  std::vector<int> reason_;                // Per variable: clause index or -1.
  std::vector<Lit> trail_;
  std::vector<int> trail_limits_;          // Trail size at each decision level.
  std::size_t propagate_head_ = 0;
  std::vector<double> activity_;
  double activity_increment_ = 1.0;
};

}  // namespace diffc::prop

#endif  // DIFFC_PROP_DPLL_H_
