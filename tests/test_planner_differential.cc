// Oracle suite: every answer the QueryPlanner dispatch gives is checked
// against the paper's definitions, not against a second copy of the
// dispatch. Over randomized instance pools (including budget-exhaustion
// paths, and premises compiled at both simplify levels):
//   - an OK verdict equals Theorem 3.5's lattice containment L(X, Y) ⊆
//     L(C), decided by brute-force enumeration (`CheckImplicationExhaustive`);
//   - a NotImplied counterexample U is a valid `f_U` witness against the
//     raw premises: U ∈ L(goal) ∖ L(C) (`IsValidCounterexample`);
//   - the answering procedure follows the dispatch rule (trivial goals by
//     `trivial`, FD-eligible premises with a singleton goal family by
//     `fd-subclass`, everything else by `interval-cover` or `sat`, and
//     `exhaustive` only after SAT ran out of budget).
// The prepared CheckBatch overload must also agree with the unprepared
// one. Runs under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/counterexample.h"
#include "core/implication.h"
#include "engine/implication_engine.h"
#include "lattice/universe.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

struct Instance {
  int n = 0;
  ConstraintSet premises;
  DifferentialConstraint goal = DifferentialConstraint(ItemSet(), SetFamily());
};

// A pool of >= 500 instances mixing every dispatch shape: FD-subclass sets,
// general sets, trivial goals, repeated right-hand families, and empty
// premise sets.
std::vector<Instance> MakeInstances(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  for (int round = 0; round < 130; ++round) {
    const int n = 6 + round % 7;  // 6..12 attributes.
    Instance base;
    base.n = n;
    switch (round % 4) {
      case 0:  // General random premises.
        base.premises = testing::RandomConstraintSet(rng, n, 2 + round % 5);
        break;
      case 1: {  // FD-shaped premises: singleton right-hand sides.
        for (int i = 0; i < 4; ++i) {
          base.premises.push_back(DifferentialConstraint(
              ItemSet::Singleton(i % n), SetFamily({ItemSet::Singleton((i + 1) % n)})));
        }
        break;
      }
      case 2:  // Empty premises.
        break;
      default:  // Dense random premises with wider families.
        base.premises = testing::RandomConstraintSet(rng, n, 3, 0.4, 3, 0.4);
        break;
    }
    for (int q = 0; q < 4; ++q) {
      Instance inst = base;
      switch (q) {
        case 0:  // Random goal.
          inst.goal = testing::RandomConstraint(rng, n);
          break;
        case 1:  // Trivial goal.
          inst.goal = DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}}));
          break;
        case 2:  // Singleton-RHS goal (FD-shaped when premises allow).
          inst.goal = DifferentialConstraint(
              ItemSet::Singleton(q % n), SetFamily({ItemSet::Singleton((q + 3) % n)}));
          break;
        default:  // Augmented premise (implied when premises are nonempty).
          if (!base.premises.empty()) {
            const DifferentialConstraint& p = base.premises[round % base.premises.size()];
            inst.goal = DifferentialConstraint(
                p.lhs().Union(ItemSet::Singleton(round % n)), p.rhs());
          } else {
            inst.goal = testing::RandomConstraint(rng, n);
          }
          break;
      }
      out.push_back(std::move(inst));
    }
  }
  return out;
}

void ExpectIdenticalResults(const EngineQueryResult& a, const EngineQueryResult& b,
                            std::size_t i) {
  EXPECT_EQ(a.status.code(), b.status.code())
      << "instance " << i << ": " << a.status.ToString() << " vs " << b.status.ToString();
  if (a.status.ok() && b.status.ok()) {
    EXPECT_EQ(a.outcome.verdict, b.outcome.verdict) << "instance " << i;
    EXPECT_EQ(a.outcome.implied, b.outcome.implied) << "instance " << i;
    EXPECT_EQ(a.outcome.counterexample, b.outcome.counterexample) << "instance " << i;
    EXPECT_EQ(a.stats.procedure, b.stats.procedure) << "instance " << i;
  } else {
    EXPECT_EQ(a.stats.stopped_in, b.stats.stopped_in) << "instance " << i;
  }
}

// Runs instances through one engine and checks each answer against the
// definitions. Every check failure names the instance and prints it.
class PlannerOracle {
 public:
  explicit PlannerOracle(const EngineOptions& options) : options_(options), engine_(options) {}

  // Answers `inst` through the engine and checks the answer; returns it.
  EngineQueryResult Check(const Instance& inst, std::size_t i) {
    EngineQueryResult r = engine_.CheckOne(inst.n, inst.premises, inst.goal);
    const std::string where = Describe(inst, i);
    if (!r.status.ok()) {
      CheckExhaustion(inst, r, where);
      return r;
    }
    CheckVerdict(inst, r, where);
    CheckProcedure(inst, r, where);
    ++answered_by_[static_cast<int>(r.stats.procedure)];
    return r;
  }

  // Queries answered OK by procedure `p`.
  std::size_t answered_by(DecisionProcedure p) const {
    return answered_by_[static_cast<int>(p)];
  }
  // Queries that ended ResourceExhausted.
  std::size_t exhausted() const { return exhausted_; }
  std::size_t mismatches() const { return mismatches_; }
  std::size_t invalid_counterexamples() const { return invalid_counterexamples_; }

 private:
  static std::string Describe(const Instance& inst, std::size_t i) {
    const Universe u = Universe::Letters(inst.n);
    std::string out = "instance " + std::to_string(i) + " (n=" + std::to_string(inst.n) +
                      "): goal " + inst.goal.ToString(u) + ", premises {";
    for (std::size_t k = 0; k < inst.premises.size(); ++k) {
      if (k > 0) out += "; ";
      out += inst.premises[k].ToString(u);
    }
    return out + "}";
  }

  // Theorem 3.5 by enumeration, and the f_U witness of Section 3.
  void CheckVerdict(const Instance& inst, const EngineQueryResult& r, const std::string& where) {
    Result<ImplicationOutcome> oracle = CheckImplicationExhaustive(inst.n, inst.premises, inst.goal);
    ASSERT_TRUE(oracle.ok()) << where << ": " << oracle.status().ToString();
    if (r.outcome.verdict != oracle->verdict) {
      ++mismatches_;
      ADD_FAILURE() << where << ": engine verdict " << r.outcome.verdict << " by "
                    << DecisionProcedureName(r.stats.procedure) << ", L(X, Y) ⊆ L(C) says "
                    << oracle->verdict;
    }
    if (r.outcome.verdict != ImplicationOutcome::kNotImplied) return;
    if (!r.outcome.counterexample.has_value() ||
        !IsValidCounterexample(inst.n, inst.premises, inst.goal, *r.outcome.counterexample)) {
      ++invalid_counterexamples_;
      ADD_FAILURE() << where << ": counterexample is not in L(goal) minus L(C)";
    }
  }

  // The dispatch rule.
  void CheckProcedure(const Instance& inst, const EngineQueryResult& r,
                      const std::string& where) {
    const DecisionProcedure got = r.stats.procedure;
    // Definition 3.1: L(X, Y) = ∅ iff some member of Y lies inside X.
    if (inst.goal.rhs().SomeMemberSubsetOf(inst.goal.lhs())) {
      EXPECT_EQ(got, DecisionProcedure::kTrivial) << where;
      return;
    }
    // The FD subclass: every (compiled) premise and the goal have a
    // single right-hand member.
    Result<std::shared_ptr<const PreparedPremises>> prepared =
        engine_.Prepare(inst.n, inst.premises);
    ASSERT_TRUE(prepared.ok()) << where;
    const ConstraintSet& compiled = (*prepared)->constraints();
    const bool fd_eligible =
        std::all_of(compiled.begin(), compiled.end(),
                    [](const DifferentialConstraint& p) { return p.rhs().size() == 1; });
    if (fd_eligible && inst.goal.rhs().size() == 1) {
      EXPECT_EQ(got, DecisionProcedure::kFdSubclass) << where;
      return;
    }
    if (got == DecisionProcedure::kExhaustive) {
      // Only after SAT spent its whole decision budget, and only within
      // the free-attribute bound.
      EXPECT_GT(r.stats.solver.decisions, options_.max_solver_decisions) << where;
      EXPECT_LE(inst.n - inst.goal.lhs().size(), options_.exhaustive_max_free_bits) << where;
      return;
    }
    if (got == DecisionProcedure::kIntervalCover) {
      EXPECT_TRUE(options_.use_interval_cover_fast_path) << where;
      return;
    }
    EXPECT_EQ(got, DecisionProcedure::kSat) << where;
  }

  // A failed query may only be SAT out of budget where exhaustive
  // enumeration is not allowed to rescue it.
  void CheckExhaustion(const Instance& inst, const EngineQueryResult& r,
                       const std::string& where) {
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << where << ": " << r.status.ToString();
    EXPECT_EQ(r.stats.stopped_in, DecisionProcedure::kSat) << where;
    EXPECT_GT(inst.n - inst.goal.lhs().size(), options_.exhaustive_max_free_bits) << where;
    ++exhausted_;
  }

  EngineOptions options_;
  ImplicationEngine engine_;
  std::size_t answered_by_[6] = {};
  std::size_t exhausted_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t invalid_counterexamples_ = 0;
};

TEST(PlannerDifferentialTest, PlannerMatchesDefinitionsOn500PlusInstances) {
  std::vector<Instance> instances = MakeInstances(20260806);
  ASSERT_GE(instances.size(), 500u);

  PlannerOracle oracle(EngineOptions{});  // Defaults: every procedure on.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EngineQueryResult r = oracle.Check(instances[i], i);
    EXPECT_TRUE(r.status.ok()) << "instance " << i << ": " << r.status.ToString();
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_EQ(oracle.invalid_counterexamples(), 0u);
  // Every branch of the dispatch rule is exercised.
  EXPECT_GT(oracle.answered_by(DecisionProcedure::kTrivial), 0u);
  EXPECT_GT(oracle.answered_by(DecisionProcedure::kFdSubclass), 0u);
  EXPECT_GT(oracle.answered_by(DecisionProcedure::kIntervalCover), 0u);
  EXPECT_GT(oracle.answered_by(DecisionProcedure::kSat), 0u);
}

TEST(PlannerDifferentialTest, PlannerMatchesDefinitionsUnderTinySolverBudget) {
  // A 1-decision SAT budget with the interval-cover fast path off and a
  // 2-bit exhaustive gate forces ResourceExhausted on every instance unit
  // propagation can't settle and enumeration may not rescue: each answer
  // is either OK and right, or that exhaustion.
  std::vector<Instance> instances = MakeInstances(99);
  ASSERT_GE(instances.size(), 500u);
  EngineOptions options;
  options.max_solver_decisions = 1;
  options.use_interval_cover_fast_path = false;
  options.exhaustive_max_free_bits = 2;

  PlannerOracle oracle(options);
  for (std::size_t i = 0; i < instances.size(); ++i) oracle.Check(instances[i], i);
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_EQ(oracle.invalid_counterexamples(), 0u);
  // The budget must actually bind on some instances or this test is vacuous.
  EXPECT_GT(oracle.exhausted(), 0u);
}

TEST(PlannerDifferentialTest, StructuralSimplifyLevelMatchesDefinitionsOn500PlusInstances) {
  // The suites above compile premises at the default level 2; this one
  // compiles them with the structural rules only (simplify level 1), so
  // both canonical forms the engine can produce answer against Theorem
  // 3.5 and the f_U witness, not against each other.
  std::vector<Instance> instances = MakeInstances(20260809);
  ASSERT_GE(instances.size(), 500u);
  EngineOptions options;
  options.simplify_level = 1;

  PlannerOracle oracle(options);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EngineQueryResult r = oracle.Check(instances[i], i);
    EXPECT_TRUE(r.status.ok()) << "instance " << i << ": " << r.status.ToString();
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_EQ(oracle.invalid_counterexamples(), 0u);
}

TEST(PlannerDifferentialTest, PreparedBatchesMatchUnpreparedBatches) {
  Rng rng(7);
  ImplicationEngine engine;
  for (int round = 0; round < 10; ++round) {
    const int n = 8 + round % 5;
    ConstraintSet premises = testing::RandomConstraintSet(rng, n, 4);
    std::vector<DifferentialConstraint> goals;
    for (int q = 0; q < 12; ++q) goals.push_back(testing::RandomConstraint(rng, n));

    Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, premises);
    ASSERT_TRUE(prepared.ok());
    Result<BatchOutcome> via_prepared = engine.CheckBatch(*prepared, goals);
    Result<BatchOutcome> via_raw = engine.CheckBatch(n, premises, goals);
    ASSERT_TRUE(via_prepared.ok());
    ASSERT_TRUE(via_raw.ok());
    for (std::size_t i = 0; i < goals.size(); ++i) {
      ExpectIdenticalResults(via_prepared->results[i], via_raw->results[i], i);
    }
  }
}

}  // namespace
}  // namespace diffc
