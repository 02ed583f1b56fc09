#ifndef DIFFC_PROP_DPLL_H_
#define DIFFC_PROP_DPLL_H_

#include <cstdint>
#include <span>
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

/// A CNF compiled for `DpllSolver`: the literals of every clause back to
/// back in one arena, in the solver's encoding (`2*var` positive,
/// `2*var+1` negative), with clause end offsets beside it. Every literal is
/// in range, no clause repeats a variable (duplicates merged, tautologies
/// dropped), and an empty clause stays as a zero-length clause.
///
/// Compile once, solve many times: `DpllSolver::Solve(base, overlay)`
/// reads a compiled CNF without modifying it, so one instance can back
/// concurrent solves on different threads.
class CompiledCnf {
 public:
  /// An empty CNF over `num_vars` variables.
  explicit CompiledCnf(int num_vars = 0) : num_vars_(num_vars) {}

  /// Compiles `cnf` clause by clause with `AddClause`; InvalidArgument when
  /// some literal is 0 or names a variable outside [0, num_vars).
  static Result<CompiledCnf> Compile(const Cnf& cnf);

  /// Removes every clause and sets the variable count; the buffers keep
  /// their capacity.
  void Reset(int num_vars);

  /// Makes room for `clauses` more clauses of `literals` literals in all.
  void Reserve(std::size_t clauses, std::size_t literals) {
    ends_.reserve(ends_.size() + clauses);
    lits_.reserve(lits_.size() + literals);
  }

  /// Appends `clause` (DIMACS literals), merging repeated literals and
  /// dropping it when it contains a literal and its negation.
  /// InvalidArgument (and nothing appended) when a literal is 0 or out of
  /// range.
  Status AddClause(std::span<const Literal> clause);

  /// Appends `clause` as given. The caller guarantees that every literal
  /// is in range and that no variable occurs twice, so there is nothing to
  /// merge or drop; builds with assertions check it.
  void AddClauseUnchecked(std::span<const Literal> clause);

  int num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return ends_.size(); }
  std::size_t num_literals() const { return lits_.size(); }

  friend bool operator==(const CompiledCnf& a, const CompiledCnf& b) = default;

 private:
  friend class DpllSolver;

  static int Encode(Literal lit) {
    const int var = lit > 0 ? lit - 1 : -lit - 1;
    return 2 * var + (lit < 0 ? 1 : 0);
  }

  int num_vars_;
  std::vector<int> lits_;
  // Clause i spans lits_[i == 0 ? 0 : ends_[i - 1], ends_[i]).
  std::vector<std::uint32_t> ends_;
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
///
/// Clauses live in one literal arena with start offsets: the loaded CNF
/// first, learned clauses appended behind it. Every buffer keeps its
/// capacity from one Solve to the next, so a solver reused across calls
/// (the implication checker keeps one per thread) allocates nothing in the
/// search once its buffers have grown to the instance size. Not
/// thread-safe: one solver per thread.
class DpllSolver {
 public:
  /// Creates a solver. `max_decisions` bounds the search; Solve returns
  /// ResourceExhausted when exceeded.
  explicit DpllSolver(std::uint64_t max_decisions = 50'000'000)
      : max_decisions_(max_decisions) {}

  /// Replaces the decision budget for later Solve calls.
  void set_max_decisions(std::uint64_t max_decisions) { max_decisions_ = max_decisions; }

  /// Installs a cooperative stop condition, checked (amortized) once per
  /// search step; Solve returns its DeadlineExceeded / Cancelled status
  /// when it fires mid-search. Non-owning; `stop` must outlive Solve.
  /// Pass nullptr to detach.
  void set_stop(StopCheck* stop) { stop_ = stop; }

  /// Decides satisfiability of `cnf`: compiles it (`CompiledCnf::Compile`,
  /// InvalidArgument on an out-of-range literal), then runs the search
  /// below. The returned model (when satisfiable) satisfies every clause;
  /// `Cnf::IsSatisfiedBy` re-checks it in tests.
  Result<SatResult> Solve(const Cnf& cnf);

  /// Decides satisfiability of `overlay ∧ base` without modifying either:
  /// a compiled base shared by many calls, plus a small per-call overlay
  /// whose unit clauses are asserted at level 0. The overlay's clauses are
  /// loaded first, then the base's. InvalidArgument when the overlay has
  /// more variables than the base.
  Result<SatResult> Solve(const CompiledCnf& base, const CompiledCnf& overlay);

  /// Statistics of the most recent Solve call: branch decisions, implied
  /// assignments, and conflicts analyzed.
  const SolverStats& stats() const { return stats_; }

 private:
  // Internal literal encoding: 2*var for positive, 2*var+1 for negative.
  using Lit = int;
  static Lit Negate(Lit l) { return l ^ 1; }
  static int VarOf(Lit l) { return l >> 1; }
  static bool SignOf(Lit l) { return l & 1; }  // true = negative.

  enum : std::int8_t { kUnassigned = -1, kFalse = 0, kTrue = 1 };

  std::int8_t LitValue(Lit l) const {
    std::int8_t v = assignment_[VarOf(l)];
    if (v == kUnassigned) return kUnassigned;
    return (v == kTrue) != SignOf(l) ? kTrue : kFalse;
  }

  Lit* ClauseBegin(int ci) { return lits_.data() + clause_start_[ci]; }
  std::uint32_t ClauseSize(int ci) const {
    return clause_start_[ci + 1] - clause_start_[ci];
  }

  // Empties the arena, the trail and the watch lists, and sizes the
  // per-variable arrays for `num_vars`, all in place.
  void Reset(int num_vars);
  // Appends the clauses of `cnf` and watches them; asserts units at level
  // 0. False when the formula is already refuted (an empty clause, or a
  // unit contradicting an earlier one).
  bool Load(const CompiledCnf& cnf);
  // Watches the arena's last clause and returns its index.
  int WatchLastClause();
  void Enqueue(Lit l, int reason);
  // Returns the index of a conflicting clause, or -1.
  int Propagate();
  // First-UIP analysis; fills `learned_` (asserting literal first) and
  // returns the backjump level.
  int Analyze(int conflict_clause);
  void Backtrack(int level);
  void BumpVar(int var);
  void DecayActivities();
  int PickBranchVariable() const;

  std::uint64_t max_decisions_;
  SolverStats stats_;
  StopCheck* stop_ = nullptr;

  int num_vars_ = 0;
  std::vector<Lit> lits_;                  // Clause arena.
  std::vector<std::uint32_t> clause_start_;  // Clause i spans [start[i], start[i+1]).
  std::vector<std::vector<int>> watches_;  // Per encoded literal; may outsize 2*num_vars_.
  std::vector<std::int8_t> assignment_;    // Per variable.
  std::vector<bool> saved_phase_;          // Per variable (true = negative).
  std::vector<int> level_;                 // Per variable.
  std::vector<int> reason_;                // Per variable: clause index or -1.
  std::vector<bool> seen_;                 // Per variable; all false between analyses.
  std::vector<Lit> trail_;
  std::vector<int> trail_limits_;          // Trail size at each decision level.
  std::vector<Lit> learned_;               // The clause Analyze builds.
  std::size_t propagate_head_ = 0;
  std::vector<double> activity_;
  double activity_increment_ = 1.0;
};

}  // namespace diffc::prop

#endif  // DIFFC_PROP_DPLL_H_
