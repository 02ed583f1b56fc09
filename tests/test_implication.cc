#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/closure.h"
#include "core/counterexample.h"
#include "core/function_ops.h"
#include "core/implication.h"
#include "core/parser.h"
#include "prop/implication_constraint.h"
#include "prop/tautology.h"
#include "util/deadline.h"
#include "test_helpers.h"

namespace diffc {
namespace {

// ------------------------------------------------------------- basic cases

TEST(ImplicationTest, PaperExample34) {
  // {A->{B}, B->{C}} |= A->{C} over S={A,B,C}.
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {C}");
  EXPECT_TRUE(CheckImplicationExhaustive(3, c, goal)->implied);
  EXPECT_TRUE(CheckImplicationSat(3, c, goal)->implied);
  EXPECT_TRUE(CheckImplication(3, c, goal)->implied);
}

TEST(ImplicationTest, NonImpliedWithValidCounterexample) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  DifferentialConstraint goal = *ParseConstraint(u, "C -> {A}");
  Result<ImplicationOutcome> r = CheckImplicationSat(3, c, goal);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
  ASSERT_TRUE(r->counterexample.has_value());
  EXPECT_TRUE(IsValidCounterexample(3, c, goal, *r->counterexample));
}

TEST(ImplicationTest, TrivialGoalAlwaysImplied) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {A}");
  EXPECT_TRUE(CheckImplication(3, {}, goal)->implied);
  EXPECT_TRUE(CheckImplicationSat(3, {}, goal)->implied);
  EXPECT_TRUE(CheckImplicationExhaustive(3, {}, goal)->implied);
}

TEST(ImplicationTest, EmptyPremisesImplyOnlyTrivial) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {B}");
  EXPECT_FALSE(CheckImplicationSat(3, {}, goal)->implied);
}

TEST(ImplicationTest, SelfImplication) {
  Rng rng(61);
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint c = testing::RandomConstraint(rng, 5);
    EXPECT_TRUE(CheckImplicationSat(5, {c}, c)->implied);
  }
}

TEST(ImplicationTest, PaperExample43Consequence) {
  // {A->{BC,CD}, C->{D}} |= AB->{D} (Example 4.3 derives it; Theorem 4.8
  // says derivable = implied).
  Universe u = Universe::Letters(4);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {D}");
  EXPECT_TRUE(CheckImplicationSat(4, c, goal)->implied);
  EXPECT_TRUE(CheckImplicationExhaustive(4, c, goal)->implied);
}

TEST(ImplicationTest, EmptyFamilyGoal) {
  // X -> {} demands density zero on the whole up-set of X; implied only by
  // premises covering all of [X, S].
  Universe u = Universe::Letters(2);
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {}");
  EXPECT_FALSE(CheckImplicationSat(2, {}, goal)->implied);
  ConstraintSet covering = *ParseConstraintSet(u, "A -> {}");
  EXPECT_TRUE(CheckImplicationSat(2, covering, goal)->implied);
}

TEST(ImplicationTest, AugmentedPremiseIsWeaker) {
  // A->{B} implies AC->{B} but not vice versa.
  Universe u = Universe::Letters(3);
  DifferentialConstraint strong = *ParseConstraint(u, "A -> {B}");
  DifferentialConstraint weak = *ParseConstraint(u, "AC -> {B}");
  EXPECT_TRUE(CheckImplicationSat(3, {strong}, weak)->implied);
  EXPECT_FALSE(CheckImplicationSat(3, {weak}, strong)->implied);
}

// --------------------------------------------- SAT vs exhaustive (property)

class SatVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(SatVsExhaustive, Agree) {
  Rng rng(GetParam() * 91 + 3);
  const int n = 6;
  for (int iter = 0; iter < 20; ++iter) {
    ConstraintSet premises =
        testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(0, 4)));
    DifferentialConstraint goal = testing::RandomConstraint(
        rng, n, 0.3, static_cast<int>(rng.UniformInt(0, 3)), 0.3);
    Result<ImplicationOutcome> ex = CheckImplicationExhaustive(n, premises, goal);
    Result<ImplicationOutcome> sat = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(ex.ok());
    ASSERT_TRUE(sat.ok());
    EXPECT_EQ(ex->implied, sat->implied);
    if (!sat->implied) {
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *sat->counterexample));
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *ex->counterexample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatVsExhaustive, ::testing::Range(1, 13));

// ------------------------------------------------ translation and universe

// The Proposition 5.4 premise clauses repeat no variable, so the arena
// `TranslatePremises` emits in its single pass is exactly the checked
// compilation of its readable clauses: nothing to merge, nothing dropped.
TEST(TranslationTest, CompiledArenaIsTheCheckedCompilation) {
  Rng rng(404);
  for (int iter = 0; iter < 100; ++iter) {
    const int n = std::vector<int>{1, 4, 8, 16, 32, 64}[iter % 6];
    ConstraintSet premises;
    const int count = static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < count; ++i) {
      premises.push_back(testing::RandomConstraint(
          rng, n, 0.3, static_cast<int>(rng.UniformInt(0, 4)), 0.2));
    }
    PremiseTranslation t = TranslatePremises(n, premises);
    ASSERT_TRUE(t.in_universe);
    EXPECT_EQ(t.n, n);
    prop::Cnf cnf;
    cnf.num_vars = t.num_vars;
    cnf.clauses = t.clauses;
    Result<prop::CompiledCnf> checked = prop::CompiledCnf::Compile(cnf);
    ASSERT_TRUE(checked.ok()) << iter;
    EXPECT_EQ(t.compiled, *checked) << iter;
    EXPECT_EQ(t.compiled.num_clauses(), t.clauses.size()) << iter;
    // The readable clauses are the per-constraint blocks, in premise order.
    std::vector<prop::Clause> blocks;
    int next_aux = n + 1;
    for (const DifferentialConstraint& p : premises) {
      prop::ConstraintClauseBlock block =
          prop::TranslateImplicationConstraint(p.lhs(), p.rhs(), next_aux);
      next_aux += block.aux_vars;
      blocks.insert(blocks.end(), block.clauses.begin(), block.clauses.end());
    }
    EXPECT_EQ(t.clauses, blocks) << iter;
    EXPECT_EQ(t.num_vars, next_aux - 1) << iter;
  }
}

// The uncached entry point compiles only the solver's arena; it must pose
// the same CNF as the cached translation: same verdict, counterexample
// and search.
TEST(TranslationTest, UncachedSatMatchesTranslatedSat) {
  Rng rng(405);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = std::vector<int>{4, 8, 16, 32}[iter % 4];
    ConstraintSet premises = testing::RandomConstraintSet(
        rng, n, static_cast<int>(rng.UniformInt(0, 24)));
    DifferentialConstraint goal = testing::RandomConstraint(
        rng, n, 0.2, static_cast<int>(rng.UniformInt(1, 3)), 0.2);
    prop::SolverStats direct_stats, translated_stats;
    Result<ImplicationOutcome> direct = CheckImplicationSat(n, premises, goal, &direct_stats);
    Result<ImplicationOutcome> translated = CheckImplicationSatTranslated(
        n, TranslatePremises(n, premises), goal, &translated_stats);
    ASSERT_TRUE(direct.ok()) << iter;
    ASSERT_TRUE(translated.ok()) << iter;
    EXPECT_EQ(direct->verdict, translated->verdict) << iter;
    EXPECT_EQ(direct->counterexample, translated->counterexample) << iter;
    EXPECT_EQ(direct_stats.decisions, translated_stats.decisions) << iter;
    EXPECT_EQ(direct_stats.propagations, translated_stats.propagations) << iter;
  }
}

// An attribute a >= n used to land on the Proposition 5.4 auxiliary
// variable a + 1: over n = 4 the SAT checker answered this goal Implied
// while the exhaustive checker answered NotImplied. Both now reject it.
TEST(UniverseTest, SetsOutsideTheUniverseAreRejected) {
  const int n = 4;
  const ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}}))};
  for (int bit : {4, 40}) {
    const DifferentialConstraint goal(ItemSet{bit}, SetFamily({ItemSet{1}}));
    const DifferentialConstraint premise(ItemSet{bit}, SetFamily({ItemSet{1}}));
    const ConstraintSet outside{premise};
    const DifferentialConstraint inside(ItemSet{0}, SetFamily({ItemSet{1}}));
    for (const Result<ImplicationOutcome>& r :
         {CheckImplicationSat(n, premises, goal), CheckImplicationExhaustive(n, premises, goal),
          CheckImplication(n, premises, goal), CheckImplicationSat(n, outside, inside),
          CheckImplicationExhaustive(n, outside, inside),
          CheckImplicationSatTranslated(n, TranslatePremises(n, premises), goal),
          CheckImplicationSatTranslated(n, TranslatePremises(n, outside), inside)}) {
      ASSERT_FALSE(r.ok()) << bit;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bit;
    }
    EXPECT_FALSE(TranslatePremises(n, outside).in_universe);
    EXPECT_TRUE(TranslatePremises(n, outside).clauses.empty());
  }
  // A translation used with another universe size is rejected as well.
  const DifferentialConstraint inside(ItemSet{0}, SetFamily({ItemSet{3}}));
  EXPECT_FALSE(CheckImplicationSatTranslated(5, TranslatePremises(n, premises), inside).ok());
  EXPECT_FALSE(ValidateUniverse(65, {}).ok());
  EXPECT_TRUE(ValidateUniverse(64, premises).ok());
}

// --------------------------------------------------- solver reuse (oracle)

// One premise set and its translation, shared read-only by every thread.
struct ReuseSide {
  int n = 0;
  ConstraintSet premises;
  PremiseTranslation translation;
};

std::vector<ReuseSide> MakeReuseSides() {
  Rng rng(2024);
  std::vector<ReuseSide> sides(2);
  sides[0].n = 8;
  sides[1].n = 20;
  for (ReuseSide& s : sides) {
    s.premises = testing::RandomConstraintSet(rng, s.n, s.n == 8 ? 6 : 14);
    s.translation = TranslatePremises(s.n, s.premises);
  }
  return sides;
}

// A goal against `side`: random on even draws, otherwise a premise with a
// widened left-hand side (implied by augmentation).
DifferentialConstraint ReuseGoal(Rng& rng, const ReuseSide& side) {
  if (rng.Bernoulli(0.5)) return testing::RandomConstraint(rng, side.n, 0.35, 2, 0.2);
  const DifferentialConstraint& p =
      side.premises[rng.UniformInt(0, static_cast<std::int64_t>(side.premises.size()) - 1)];
  return DifferentialConstraint(p.lhs().Union(ItemSet(rng.RandomMask(side.n, 0.35))), p.rhs());
}

// Checks an OK SAT answer against Theorem 3.5 by enumeration and its
// counterexample against the f_U witness test.
void ExpectOracleAgrees(const ReuseSide& side, const DifferentialConstraint& goal,
                        const ImplicationOutcome& got) {
  Result<ImplicationOutcome> want = CheckImplicationExhaustive(side.n, side.premises, goal);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.implied, want->implied);
  if (!got.implied) {
    ASSERT_TRUE(got.counterexample.has_value());
    EXPECT_TRUE(IsValidCounterexample(side.n, side.premises, goal, *got.counterexample));
  }
}

struct ReuseCounts {
  int checked = 0;
  int implied = 0;
  int exhausted = 0;
  int cancelled = 0;
};

// Interleaves, on the calling thread's solver, queries against the n=8 and
// n=20 translations with a call stopped by a zero decision budget and one
// stopped by a fired cancel token, so every answer follows a call of
// another size or one abandoned mid-search.
ReuseCounts RunReuseRounds(const std::vector<ReuseSide>& sides, std::uint64_t seed) {
  Rng rng(seed);
  CancelToken fired;
  fired.Cancel();
  ReuseCounts counts;
  for (int round = 0; round < 40; ++round) {
    for (std::size_t k = 0; k < sides.size(); ++k) {
      const ReuseSide& side = sides[k];
      const ReuseSide& other = sides[1 - k];
      const DifferentialConstraint goal = ReuseGoal(rng, side);
      Result<ImplicationOutcome> r = CheckImplicationSatTranslated(side.n, side.translation, goal);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        ExpectOracleAgrees(side, goal, *r);
        ++counts.checked;
        if (r->implied) ++counts.implied;
      }
      // Stop the other side's next query mid-search.
      const DifferentialConstraint stopped = ReuseGoal(rng, other);
      StopCheck stop(Deadline::Never(), fired, 1);
      Result<ImplicationOutcome> s =
          k == 0 ? CheckImplicationSatTranslated(other.n, other.translation, stopped, nullptr,
                                                 /*max_decisions=*/0)
                 : CheckImplicationSatTranslated(other.n, other.translation, stopped, nullptr,
                                                 50'000'000, &stop);
      if (s.ok()) {
        ExpectOracleAgrees(other, stopped, *s);  // Settled before any search step.
      } else if (s.status().code() == StatusCode::kResourceExhausted) {
        ++counts.exhausted;
      } else {
        EXPECT_EQ(s.status().code(), StatusCode::kCancelled);
        ++counts.cancelled;
      }
    }
  }
  return counts;
}

TEST(SolverReuseTest, InterleavedSizesAndAbortedCallsMatchOracle) {
  const std::vector<ReuseSide> sides = MakeReuseSides();
  const ReuseCounts counts = RunReuseRounds(sides, 1);
  EXPECT_EQ(counts.checked, 80);
  EXPECT_GT(counts.implied, 0);
  EXPECT_LT(counts.implied, counts.checked);
  EXPECT_GT(counts.exhausted, 0);
  EXPECT_GT(counts.cancelled, 0);
}

TEST(SolverReuseTest, FourThreadsShareTranslationsNotSolvers) {
  const std::vector<ReuseSide> sides = MakeReuseSides();
  std::vector<ReuseCounts> counts(4);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      threads.emplace_back([&sides, &counts, t] { counts[t] = RunReuseRounds(sides, 10 + t); });
    }
  }
  for (const ReuseCounts& c : counts) {
    EXPECT_EQ(c.checked, 80);
    EXPECT_GT(c.exhausted + c.cancelled, 0);
  }
}

// --------------------------------------------------- semantic ground truth

// Theorem 3.5 both ways: implied iff every function built from a density
// vanishing on L(C) satisfies the goal; and the counterexample function
// from a SAT model satisfies C but not the goal.
class SemanticGroundTruth : public ::testing::TestWithParam<int> {};

TEST_P(SemanticGroundTruth, CounterexampleFunctionBehaves) {
  Rng rng(GetParam() * 17 + 11);
  const int n = 5;
  for (int iter = 0; iter < 15; ++iter) {
    ConstraintSet premises = testing::RandomConstraintSet(rng, n, 3);
    DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    Result<ImplicationOutcome> r = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(r.ok());
    if (r->implied) continue;
    SetFunction<std::int64_t> f = *CounterexampleFunction(n, *r->counterexample);
    for (const DifferentialConstraint& p : premises) {
      EXPECT_TRUE(Satisfies(f, p)) << p.ToString(Universe::Letters(n));
    }
    EXPECT_FALSE(Satisfies(f, goal));
    EXPECT_TRUE(IsFrequencyFunction(f));  // f_U is a support function.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticGroundTruth, ::testing::Range(1, 9));

// ------------------------------------------------------------- FD subclass

TEST(FdSubclassTest, Applicability) {
  Universe u = Universe::Letters(4);
  ConstraintSet fds = *ParseConstraintSet(u, "A -> {B}; B -> {CD}");
  DifferentialConstraint fd_goal = *ParseConstraint(u, "A -> {D}");
  DifferentialConstraint non_fd_goal = *ParseConstraint(u, "A -> {B, C}");
  EXPECT_TRUE(FdSubclassApplicable(fds, fd_goal));
  EXPECT_FALSE(FdSubclassApplicable(fds, non_fd_goal));
  EXPECT_FALSE(FdSubclassApplicable({non_fd_goal}, fd_goal));
}

TEST(FdSubclassTest, TransitiveClosure) {
  Universe u = Universe::Letters(4);
  ConstraintSet fds = *ParseConstraintSet(u, "A -> {B}; B -> {CD}");
  EXPECT_TRUE(CheckImplicationFd(4, fds, *ParseConstraint(u, "A -> {D}"))->implied);
  EXPECT_FALSE(CheckImplicationFd(4, fds, *ParseConstraint(u, "C -> {A}"))->implied);
}

TEST(FdSubclassTest, RequiresApplicability) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint non_fd = *ParseConstraint(u, "A -> {B, C}");
  EXPECT_EQ(CheckImplicationFd(3, {non_fd}, non_fd).status().code(),
            StatusCode::kFailedPrecondition);
}

// §8: the FD subclass agrees with the general decision procedures.
class FdSubclassProperty : public ::testing::TestWithParam<int> {};

TEST_P(FdSubclassProperty, MatchesSatChecker) {
  Rng rng(GetParam() * 13);
  const int n = 6;
  for (int iter = 0; iter < 25; ++iter) {
    ConstraintSet premises;
    int count = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < count; ++i) {
      premises.push_back(testing::RandomConstraint(rng, n, 0.3, 1, 0.3));
    }
    DifferentialConstraint goal = testing::RandomConstraint(rng, n, 0.3, 1, 0.3);
    ASSERT_TRUE(FdSubclassApplicable(premises, goal));
    Result<ImplicationOutcome> fd = CheckImplicationFd(n, premises, goal);
    Result<ImplicationOutcome> sat = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sat.ok());
    EXPECT_EQ(fd->implied, sat->implied);
    if (!fd->implied) {
      // The closure is itself a valid counterexample set.
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *fd->counterexample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdSubclassProperty, ::testing::Range(1, 13));

// --------------------------------------------------------- coNP reduction

TEST(ConpReductionTest, TautologyGoalShape) {
  DifferentialConstraint goal = TautologyGoal();
  EXPECT_TRUE(goal.lhs().empty());
  EXPECT_TRUE(goal.rhs().empty());
}

TEST(ConpReductionTest, ExcludedMiddleMapsToImplied) {
  prop::DnfFormula f;
  f.num_vars = 1;
  f.conjuncts = {{0b1, 0}, {0, 0b1}};  // A ∨ ¬A.
  ConstraintSet c = DnfTautologyReduction(f);
  EXPECT_TRUE(CheckImplicationSat(1, c, TautologyGoal())->implied);
}

TEST(ConpReductionTest, NonTautologyMapsToNonImplied) {
  prop::DnfFormula f;
  f.num_vars = 2;
  f.conjuncts = {{0b01, 0}};  // Just A.
  ConstraintSet c = DnfTautologyReduction(f);
  EXPECT_FALSE(CheckImplicationSat(2, c, TautologyGoal())->implied);
}

// Proposition 5.5: φ tautology ⟺ C_φ |= ∅ -> {} on random DNFs.
class Prop55Property : public ::testing::TestWithParam<int> {};

TEST_P(Prop55Property, ReductionIsCorrect) {
  const int seed = GetParam();
  for (int i = 0; i < 10; ++i) {
    prop::DnfFormula f = prop::RandomDnf(5, 6 + i, 2, seed * 100 + i);
    bool tautology = *prop::IsDnfTautologyExhaustive(f);
    ConstraintSet c = DnfTautologyReduction(f);
    Result<ImplicationOutcome> r = CheckImplicationSat(f.num_vars, c, TautologyGoal());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->implied, tautology) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop55Property, ::testing::Range(1, 9));

// ------------------------------------------------------------------ closure

TEST(ClosureTest, MembershipAndEnumeration) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  // L(C) = L(A,{B}) ∪ L(B,{C}) = {A, AC} ∪ {B, AB}.
  Result<std::vector<ItemSet>> lattice = ClosureLattice(3, c);
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(*lattice, (std::vector<ItemSet>{ItemSet(0b001), ItemSet(0b010),
                                            ItemSet(0b011), ItemSet(0b101)}));
  EXPECT_TRUE(InClosureLattice(c, ItemSet(0b101)));
  EXPECT_FALSE(InClosureLattice(c, ItemSet(0b100)));
}

TEST(ClosureTest, Equivalence) {
  Universe u = Universe::Letters(3);
  ConstraintSet a = *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}");
  ConstraintSet b = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  EXPECT_TRUE(*AreEquivalent(3, a, b));
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}");
  EXPECT_FALSE(*AreEquivalent(3, a, c));
}

TEST(ClosureTest, RedundantConstraints) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}");
  Result<std::vector<int>> redundant = RedundantConstraints(3, c);
  ASSERT_TRUE(redundant.ok());
  EXPECT_EQ(*redundant, std::vector<int>{2});
}

TEST(ClosureTest, MinimalCoverIsEquivalentAndIrredundant) {
  Universe u = Universe::Letters(4);
  ConstraintSet c =
      *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}; AB -> {C}; C -> {D}");
  Result<ConstraintSet> cover = MinimalCover(4, c);
  ASSERT_TRUE(cover.ok());
  EXPECT_LT(cover->size(), c.size());
  EXPECT_TRUE(*AreEquivalent(4, c, *cover));
  EXPECT_TRUE(RedundantConstraints(4, *cover)->empty());
}

TEST(ClosureTest, TrivialConstraintsAreAlwaysRedundant) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "AB -> {A}; A -> {B}");
  Result<std::vector<int>> redundant = RedundantConstraints(3, c);
  ASSERT_TRUE(redundant.ok());
  EXPECT_EQ(*redundant, std::vector<int>{0});
}

}  // namespace
}  // namespace diffc
