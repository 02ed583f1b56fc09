#ifndef DIFFC_PROP_IMPLICATION_CONSTRAINT_H_
#define DIFFC_PROP_IMPLICATION_CONSTRAINT_H_

#include <span>

#include "lattice/set_family.h"
#include "prop/cnf.h"
#include "prop/formula.h"
#include "util/bitops.h"

namespace diffc::prop {

/// Implication constraints (Definition 5.2): `X ⇒prop Y` denotes the
/// formula `∧X ⇒ ∨_{Y∈Y} ∧Y`.
///
/// By Proposition 5.3, `negminset(X ⇒prop Y) = L(X, Y)`: an assignment `U`
/// falsifies the formula exactly when `X ⊆ U` and no member of `Y` is
/// contained in `U`. Edge cases follow the usual conventions: an empty
/// right-hand family is the empty disjunction (false), and an empty member
/// is the empty conjunction (true), matching trivial constraints.
FormulaPtr ImplicationConstraintFormula(const ItemSet& x, const SetFamily& family);

/// The CNF clause block of one implication constraint on the premise side
/// of Proposition 5.4, as a standalone buildable artifact: the main clause
///
///   (∨_{a∈X} ¬u_a) ∨ ∨_j aux_j
///
/// preceded by the one-sided auxiliary definitions `aux_j → ∧_{y∈Y_j} u_y`
/// (one auxiliary variable per right-hand member; one binary clause per
/// attribute of the member). One-sided definitions suffice because every
/// `aux_j` occurs positively only in the main clause.
struct ConstraintClauseBlock {
  /// Auxiliary variables consumed: `first_aux_var .. first_aux_var +
  /// aux_vars - 1`, one per right-hand member.
  int aux_vars = 0;
  /// The definition clauses followed by the main clause (always last).
  std::vector<Clause> clauses;
};

/// Builds the clause block of `x ⇒prop family` with auxiliaries numbered
/// from `first_aux_var` (1-based DIMACS-style, like every other variable).
/// Premise translations (`TranslatePremises` in `core/implication.h`) are
/// the concatenation of these blocks in premise order.
ConstraintClauseBlock TranslateImplicationConstraint(const ItemSet& x, const SetFamily& family,
                                                     int first_aux_var);

/// The same block without building it: calls `emit(std::span<const
/// Literal>)` once per clause, in `TranslateImplicationConstraint` order,
/// and returns the auxiliaries consumed. The main clause is assembled in
/// `*main_clause`, a buffer the caller may reuse across calls; each span
/// is valid only during its `emit` call.
template <typename Emit>
int EmitImplicationConstraintClauses(const ItemSet& x, const SetFamily& family,
                                     int first_aux_var, Clause* main_clause, Emit&& emit) {
  main_clause->clear();
  ForEachBit(x.bits(), [&](int a) { main_clause->push_back(-(a + 1)); });
  int aux_vars = 0;
  for (const ItemSet& member : family.members()) {
    const int aux = first_aux_var + aux_vars++;
    ForEachBit(member.bits(), [&](int y) {
      const Literal definition[2] = {-aux, y + 1};
      emit(std::span<const Literal>(definition));
    });
    main_clause->push_back(aux);
  }
  emit(std::span<const Literal>(*main_clause));
  return aux_vars;
}

}  // namespace diffc::prop

#endif  // DIFFC_PROP_IMPLICATION_CONSTRAINT_H_
