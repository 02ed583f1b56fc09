#include <gtest/gtest.h>

#include <set>

#include "lattice/decomposition.h"
#include "prop/cnf.h"
#include "prop/dpll.h"
#include "prop/formula.h"
#include "prop/implication_constraint.h"
#include "prop/minterm.h"
#include "prop/tautology.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

using prop::Cnf;
using prop::DnfFormula;
using prop::DpllSolver;
using prop::Formula;
using prop::FormulaPtr;

// ---------------------------------------------------------------- formulas

TEST(FormulaTest, ConstEval) {
  EXPECT_TRUE(Formula::True()->Eval(0));
  EXPECT_FALSE(Formula::False()->Eval(~Mask{0}));
}

TEST(FormulaTest, VarEval) {
  FormulaPtr v = Formula::Var(2);
  EXPECT_TRUE(v->Eval(0b100));
  EXPECT_FALSE(v->Eval(0b011));
}

TEST(FormulaTest, Connectives) {
  FormulaPtr f = Formula::And({Formula::Var(0), Formula::Not(Formula::Var(1))});
  EXPECT_TRUE(f->Eval(0b01));
  EXPECT_FALSE(f->Eval(0b11));
  EXPECT_FALSE(f->Eval(0b00));

  FormulaPtr g = Formula::Or({Formula::Var(0), Formula::Var(1)});
  EXPECT_TRUE(g->Eval(0b10));
  EXPECT_FALSE(g->Eval(0b00));
}

TEST(FormulaTest, EmptyConnectives) {
  EXPECT_TRUE(Formula::And({})->Eval(0));   // Empty conjunction = true.
  EXPECT_FALSE(Formula::Or({})->Eval(0));   // Empty disjunction = false.
}

TEST(FormulaTest, Implies) {
  FormulaPtr f = Formula::Implies(Formula::Var(0), Formula::Var(1));
  EXPECT_TRUE(f->Eval(0b00));
  EXPECT_TRUE(f->Eval(0b10));
  EXPECT_TRUE(f->Eval(0b11));
  EXPECT_FALSE(f->Eval(0b01));
}

TEST(FormulaTest, AndOfVars) {
  FormulaPtr f = Formula::AndOfVars(0b101);
  EXPECT_TRUE(f->Eval(0b111));
  EXPECT_FALSE(f->Eval(0b011));
}

TEST(FormulaTest, MaxVar) {
  EXPECT_EQ(Formula::True()->MaxVar(), -1);
  EXPECT_EQ(Formula::And({Formula::Var(3), Formula::Not(Formula::Var(5))})->MaxVar(), 5);
}

TEST(FormulaTest, ToString) {
  Universe u = Universe::Letters(3);
  FormulaPtr f = Formula::Or({Formula::And({Formula::Var(0), Formula::Not(Formula::Var(1))}),
                              Formula::Var(2)});
  EXPECT_EQ(f->ToString(u), "((A & !B) | C)");
}

// ---------------------------------------------------------------- minterms

TEST(MintermTest, MintermTrueExactlyAtItsAssignment) {
  const int n = 4;
  for (Mask x = 0; x < (Mask{1} << n); ++x) {
    FormulaPtr m = prop::MintermFormula(x, n);
    for (Mask a = 0; a < (Mask{1} << n); ++a) {
      EXPECT_EQ(m->Eval(a), a == x);
    }
  }
}

TEST(MintermTest, MinsetAndNegMinsetPartition) {
  const int n = 4;
  FormulaPtr f = Formula::Implies(Formula::Var(0), Formula::Var(2));
  std::vector<Mask> pos = *prop::Minset(*f, n);
  std::vector<Mask> neg = *prop::NegMinset(*f, n);
  EXPECT_EQ(pos.size() + neg.size(), std::size_t{1} << n);
  std::set<Mask> all(pos.begin(), pos.end());
  all.insert(neg.begin(), neg.end());
  EXPECT_EQ(all.size(), std::size_t{1} << n);
}

TEST(MintermTest, EntailsBasics) {
  const int n = 3;
  std::vector<FormulaPtr> premises{Formula::Implies(Formula::Var(0), Formula::Var(1)),
                                   Formula::Implies(Formula::Var(1), Formula::Var(2))};
  FormulaPtr chain = Formula::Implies(Formula::Var(0), Formula::Var(2));
  FormulaPtr wrong = Formula::Implies(Formula::Var(2), Formula::Var(0));
  EXPECT_TRUE(*prop::Entails(premises, *chain, n));
  EXPECT_FALSE(*prop::Entails(premises, *wrong, n));
}

// Proposition 5.3: negminset(X ⇒prop Y) = L(X, Y).
class Prop53Property : public ::testing::TestWithParam<int> {};

TEST_P(Prop53Property, NegMinsetEqualsLatticeDecomposition) {
  Rng rng(GetParam() * 7 + 1);
  const int n = 5;
  for (int iter = 0; iter < 20; ++iter) {
    DifferentialConstraint c = testing::RandomConstraint(
        rng, n, 0.3, static_cast<int>(rng.UniformInt(0, 3)), 0.35);
    FormulaPtr f = prop::ImplicationConstraintFormula(c.lhs(), c.rhs());
    std::vector<Mask> neg = *prop::NegMinset(*f, n);
    std::set<Mask> neg_set(neg.begin(), neg.end());
    for (Mask m = 0; m < (Mask{1} << n); ++m) {
      EXPECT_EQ(neg_set.count(m) > 0, InDecomposition(n, c.lhs(), c.rhs(), ItemSet(m)))
          << "m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop53Property, ::testing::Range(1, 11));

TEST(ImplicationConstraintTest, PaperExampleAlpha) {
  // α = A ⇒ B ∨ (C∧D); negminset(α) = {A, AC, AD} (Section 5 example).
  ItemSet a{0};
  SetFamily fam({ItemSet{1}, ItemSet{2, 3}});
  FormulaPtr f = prop::ImplicationConstraintFormula(a, fam);
  std::vector<Mask> neg = *prop::NegMinset(*f, 4);
  EXPECT_EQ(neg, (std::vector<Mask>{0b0001, 0b0101, 0b1001}));
}

// ---------------------------------------------------------------- CNF/DPLL

TEST(CnfTest, IsSatisfiedBy) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({1, 2});
  cnf.AddClause({-1});
  EXPECT_TRUE(cnf.IsSatisfiedBy({false, true}));
  EXPECT_FALSE(cnf.IsSatisfiedBy({true, true}));
  EXPECT_FALSE(cnf.IsSatisfiedBy({false, false}));
}

TEST(CnfTest, ToStringDimacsish) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({1, -2});
  EXPECT_EQ(cnf.ToString(), "p cnf 2 1\n1 -2 0\n");
}

TEST(DpllTest, SatisfiableAndModelValid) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({1, 2});
  cnf.AddClause({-1, 3});
  cnf.AddClause({-2, -3});
  DpllSolver solver;
  Result<prop::SatResult> r = solver.Solve(cnf);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->satisfiable);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r->model));
}

TEST(DpllTest, Unsatisfiable) {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.AddClause({1});
  cnf.AddClause({-1});
  DpllSolver solver;
  Result<prop::SatResult> r = solver.Solve(cnf);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->satisfiable);
}

TEST(DpllTest, EmptyCnfIsSatisfiable) {
  Cnf cnf;
  cnf.num_vars = 0;
  Result<prop::SatResult> r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);
}

TEST(DpllTest, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({});
  Result<prop::SatResult> r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->satisfiable);
}

TEST(DpllTest, RejectsOutOfRangeLiterals) {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.AddClause({2});
  EXPECT_FALSE(DpllSolver().Solve(cnf).ok());
}

TEST(DpllTest, StatsPopulated) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({1, 2});
  cnf.AddClause({-1, 3});
  cnf.AddClause({-3, 4});
  DpllSolver solver;
  ASSERT_TRUE(solver.Solve(cnf).ok());
  EXPECT_GT(solver.stats().decisions + solver.stats().propagations, 0u);
}

TEST(DpllTest, TautologicalClausesDropped) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({1, -1});
  cnf.AddClause({2});
  Result<prop::SatResult> r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->satisfiable);
  EXPECT_TRUE(r->model[1]);
}

// Pigeonhole principle PHP(pigeons, holes): every pigeon sits in some hole
// and no hole holds two pigeons. Unsatisfiable iff pigeons > holes, and a
// classically hard family for resolution, so it exercises clause learning.
Cnf Pigeonhole(int pigeons, int holes) {
  Cnf cnf;
  cnf.num_vars = pigeons * holes;
  auto var = [&](int p, int h) { return p * holes + h + 1; };
  for (int p = 0; p < pigeons; ++p) {
    prop::Clause clause;
    for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
    cnf.AddClause(std::move(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.AddClause({-var(p1, h), -var(p2, h)});
      }
    }
  }
  return cnf;
}

TEST(DpllTest, PigeonholeUnsat) {
  for (int holes = 2; holes <= 5; ++holes) {
    DpllSolver solver;
    Result<prop::SatResult> r = solver.Solve(Pigeonhole(holes + 1, holes));
    ASSERT_TRUE(r.ok()) << holes;
    EXPECT_FALSE(r->satisfiable) << holes;
    if (holes == 5) {
      // Refuting PHP(6,5) takes conflicts, each analyzed into a learned clause.
      EXPECT_GT(solver.stats().conflicts, 0u);
    }
  }
}

TEST(DpllTest, PigeonholeSatWhenEnoughHoles) {
  Cnf cnf = Pigeonhole(4, 4);
  Result<prop::SatResult> r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->satisfiable);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r->model));
}

// ------------------------------------------------------------ compiled CNF

TEST(CompiledCnfTest, CompileMergesDuplicatesAndDropsTautologies) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({1, 1, 2});  // Kept as (1 ∨ 2).
  cnf.AddClause({1, -1});    // Tautology: dropped.
  cnf.AddClause({});         // Kept as the empty clause.
  cnf.AddClause({-2});
  Result<prop::CompiledCnf> compiled = prop::CompiledCnf::Compile(cnf);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_vars(), 2);
  EXPECT_EQ(compiled->num_clauses(), 3u);
  EXPECT_EQ(compiled->num_literals(), 3u);
}

TEST(CompiledCnfTest, RejectedClauseAppendsNothing) {
  prop::CompiledCnf compiled(2);
  ASSERT_TRUE(compiled.AddClause(std::vector<prop::Literal>{1, -2}).ok());
  EXPECT_FALSE(compiled.AddClause(std::vector<prop::Literal>{1, 3}).ok());
  EXPECT_FALSE(compiled.AddClause(std::vector<prop::Literal>{0}).ok());
  EXPECT_EQ(compiled.num_clauses(), 1u);
  EXPECT_EQ(compiled.num_literals(), 2u);
  compiled.Reset(1);
  EXPECT_EQ(compiled, prop::CompiledCnf(1));
}

// A random CNF over `n` variables with `clauses` clauses of width 1-3.
Cnf RandomCnf(Rng& rng, int n, int clauses) {
  Cnf cnf;
  cnf.num_vars = n;
  for (int c = 0; c < clauses; ++c) {
    prop::Clause clause;
    const int width = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < width; ++l) {
      const int var = static_cast<int>(rng.UniformInt(0, n - 1));
      clause.push_back(rng.Bernoulli(0.5) ? var + 1 : -(var + 1));
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

// Solving `overlay ∧ base` on compiled halves is the same search as solving
// the concatenated CNF: same verdict, same counters, the same model.
TEST(DpllTest, OverlayMatchesConcatenatedCnf) {
  Rng rng(77);
  DpllSolver reused;
  for (int iter = 0; iter < 200; ++iter) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    Cnf whole = RandomCnf(rng, n, static_cast<int>(rng.UniformInt(n, 5 * n)));
    const auto split = static_cast<std::size_t>(rng.UniformInt(0, 3));
    Cnf front;
    front.num_vars = n;
    Cnf back;
    back.num_vars = n;
    for (std::size_t c = 0; c < whole.clauses.size(); ++c) {
      (c < split ? front : back).AddClause(whole.clauses[c]);
    }
    Result<prop::CompiledCnf> overlay = prop::CompiledCnf::Compile(front);
    Result<prop::CompiledCnf> base = prop::CompiledCnf::Compile(back);
    ASSERT_TRUE(overlay.ok() && base.ok());

    DpllSolver fresh;
    Result<prop::SatResult> want = fresh.Solve(whole);
    Result<prop::SatResult> got = reused.Solve(*base, *overlay);
    ASSERT_TRUE(want.ok() && got.ok()) << iter;
    EXPECT_EQ(got->satisfiable, want->satisfiable) << iter;
    EXPECT_EQ(reused.stats().decisions, fresh.stats().decisions) << iter;
    EXPECT_EQ(reused.stats().propagations, fresh.stats().propagations) << iter;
    EXPECT_EQ(reused.stats().conflicts, fresh.stats().conflicts) << iter;
    EXPECT_EQ(got->model, want->model) << iter;
    if (got->satisfiable) {
      EXPECT_TRUE(whole.IsSatisfiedBy(got->model)) << iter;
    }
  }
}

TEST(DpllTest, OverlayWiderThanBaseIsInvalid) {
  prop::CompiledCnf base(2);
  prop::CompiledCnf overlay(3);
  ASSERT_TRUE(overlay.AddClause(std::vector<prop::Literal>{3}).ok());
  Result<prop::SatResult> r = DpllSolver().Solve(base, overlay);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// One solver reused across instances of different sizes, including a call
// that stops on its decision budget mid-search, answers every later call
// exactly as a fresh solver does: nothing leaks from one Solve to the next.
TEST(DpllTest, ReusedSolverMatchesFreshSolver) {
  Rng rng(78);
  DpllSolver reused;
  for (int iter = 0; iter < 60; ++iter) {
    Cnf cnf;
    std::uint64_t budget = 50'000'000;
    if (iter % 10 == 3) {
      cnf = Pigeonhole(6, 5);
      budget = 3;  // Stops mid-search with learned clauses in the arena.
    } else if (iter % 10 == 7) {
      cnf = Pigeonhole(5, 4);
    } else {
      const int n = static_cast<int>(rng.UniformInt(1, 12));
      cnf = RandomCnf(rng, n, static_cast<int>(rng.UniformInt(n, 5 * n)));
    }
    reused.set_max_decisions(budget);
    DpllSolver fresh(budget);
    Result<prop::SatResult> want = fresh.Solve(cnf);
    Result<prop::SatResult> got = reused.Solve(cnf);
    ASSERT_EQ(got.ok(), want.ok()) << iter;
    EXPECT_EQ(reused.stats().decisions, fresh.stats().decisions) << iter;
    EXPECT_EQ(reused.stats().propagations, fresh.stats().propagations) << iter;
    EXPECT_EQ(reused.stats().conflicts, fresh.stats().conflicts) << iter;
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted) << iter;
      continue;
    }
    EXPECT_EQ(got->satisfiable, want->satisfiable) << iter;
    EXPECT_EQ(got->model, want->model) << iter;
  }
}

// Property: DPLL agrees with exhaustive evaluation on random CNFs of up to
// 12 variables across the phase transition (n to 5n clauses).
class DpllProperty : public ::testing::TestWithParam<int> {};

TEST_P(DpllProperty, AgreesWithBruteForce) {
  Rng rng(GetParam() * 41);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    const int clauses = static_cast<int>(rng.UniformInt(n, 5 * n));
    Cnf cnf;
    cnf.num_vars = n;
    for (int c = 0; c < clauses; ++c) {
      prop::Clause clause;
      int width = static_cast<int>(rng.UniformInt(1, 3));
      for (int l = 0; l < width; ++l) {
        int var = static_cast<int>(rng.UniformInt(0, n - 1));
        clause.push_back(rng.Bernoulli(0.5) ? var + 1 : -(var + 1));
      }
      cnf.AddClause(std::move(clause));
    }
    bool brute_sat = false;
    for (Mask m = 0; m < (Mask{1} << n) && !brute_sat; ++m) {
      std::vector<bool> assignment(n);
      for (int v = 0; v < n; ++v) assignment[v] = (m >> v) & 1;
      if (cnf.IsSatisfiedBy(assignment)) brute_sat = true;
    }
    Result<prop::SatResult> r = DpllSolver().Solve(cnf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->satisfiable, brute_sat);
    if (r->satisfiable) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(r->model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpllProperty, ::testing::Range(1, 17));

// ------------------------------------------------------------------ Tseitin

TEST(TseitinTest, EquisatisfiableOnRandomFormulas) {
  Rng rng(51);
  const int n = 5;
  for (int iter = 0; iter < 40; ++iter) {
    // Random depth-2 formula.
    std::vector<FormulaPtr> clauses;
    int parts = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < parts; ++i) {
      std::vector<FormulaPtr> lits;
      int width = static_cast<int>(rng.UniformInt(1, 3));
      for (int j = 0; j < width; ++j) {
        FormulaPtr v = Formula::Var(static_cast<int>(rng.UniformInt(0, n - 1)));
        lits.push_back(rng.Bernoulli(0.5) ? v : Formula::Not(v));
      }
      clauses.push_back(rng.Bernoulli(0.5) ? Formula::And(lits) : Formula::Or(lits));
    }
    FormulaPtr f = rng.Bernoulli(0.5) ? Formula::And(clauses) : Formula::Or(clauses);

    bool truth_sat = !prop::Minset(*f, n)->empty();
    Cnf cnf = prop::TseitinTransform(*f, n);
    Result<prop::SatResult> r = DpllSolver().Solve(cnf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->satisfiable, truth_sat);
    if (r->satisfiable) {
      // The model restricted to the original variables satisfies f.
      Mask assignment = 0;
      for (int v = 0; v < n; ++v) {
        if (r->model[v]) assignment |= Mask{1} << v;
      }
      EXPECT_TRUE(f->Eval(assignment));
    }
  }
}

TEST(TseitinTest, ConstantsEncode) {
  Cnf t = prop::TseitinTransform(*Formula::True(), 0);
  EXPECT_TRUE(DpllSolver().Solve(t)->satisfiable);
  Cnf f = prop::TseitinTransform(*Formula::False(), 0);
  EXPECT_FALSE(DpllSolver().Solve(f)->satisfiable);
}

// ---------------------------------------------------------------- tautology

TEST(TautologyTest, DnfEval) {
  DnfFormula f;
  f.num_vars = 2;
  f.conjuncts = {{0b01, 0b10}};  // A ∧ ¬B.
  EXPECT_TRUE(f.Eval(0b01));
  EXPECT_FALSE(f.Eval(0b11));
  EXPECT_FALSE(f.Eval(0b00));
}

TEST(TautologyTest, LawOfExcludedMiddle) {
  DnfFormula f;
  f.num_vars = 1;
  f.conjuncts = {{0b1, 0}, {0, 0b1}};  // A ∨ ¬A.
  EXPECT_TRUE(*prop::IsDnfTautology(f));
  EXPECT_TRUE(*prop::IsDnfTautologyExhaustive(f));
}

TEST(TautologyTest, SingleConjunctIsNot) {
  DnfFormula f;
  f.num_vars = 2;
  f.conjuncts = {{0b01, 0}};
  EXPECT_FALSE(*prop::IsDnfTautology(f));
}

TEST(TautologyTest, EmptyDnfIsFalse) {
  DnfFormula f;
  f.num_vars = 1;
  EXPECT_FALSE(*prop::IsDnfTautology(f));
}

TEST(TautologyTest, SatMatchesExhaustiveOnRandomDnfs) {
  for (int seed = 1; seed <= 40; ++seed) {
    DnfFormula f = prop::RandomDnf(5, 8, 2, seed);
    EXPECT_EQ(*prop::IsDnfTautology(f), *prop::IsDnfTautologyExhaustive(f))
        << "seed=" << seed;
  }
  // The denser shape of the coNP experiment (E2).
  for (int seed = 1; seed <= 20; ++seed) {
    DnfFormula f = prop::RandomDnf(8, 20, 3, seed);
    EXPECT_EQ(*prop::IsDnfTautology(f), *prop::IsDnfTautologyExhaustive(f))
        << "seed=" << seed;
  }
}

TEST(TautologyTest, RandomDnfShape) {
  DnfFormula f = prop::RandomDnf(6, 10, 3, 9);
  EXPECT_EQ(f.num_vars, 6);
  ASSERT_EQ(f.conjuncts.size(), 10u);
  for (const prop::DnfConjunct& c : f.conjuncts) {
    EXPECT_EQ(Popcount(c.pos | c.neg), 3);
    EXPECT_EQ(c.pos & c.neg, 0u);
  }
}

}  // namespace
}  // namespace diffc
