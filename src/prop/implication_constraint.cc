#include "prop/implication_constraint.h"

namespace diffc::prop {

FormulaPtr ImplicationConstraintFormula(const ItemSet& x, const SetFamily& family) {
  std::vector<FormulaPtr> disjuncts;
  disjuncts.reserve(family.size());
  for (const ItemSet& member : family.members()) {
    disjuncts.push_back(Formula::AndOfVars(member.bits()));
  }
  return Formula::Implies(Formula::AndOfVars(x.bits()), Formula::Or(std::move(disjuncts)));
}

ConstraintClauseBlock TranslateImplicationConstraint(const ItemSet& x, const SetFamily& family,
                                                     int first_aux_var) {
  ConstraintClauseBlock out;
  Clause main_clause;
  out.aux_vars = EmitImplicationConstraintClauses(
      x, family, first_aux_var, &main_clause, [&](std::span<const Literal> clause) {
        out.clauses.emplace_back(clause.begin(), clause.end());
      });
  return out;
}

}  // namespace diffc::prop
