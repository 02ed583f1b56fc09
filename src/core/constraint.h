#ifndef DIFFC_CORE_CONSTRAINT_H_
#define DIFFC_CORE_CONSTRAINT_H_

#include <string>
#include <vector>

#include "lattice/set_family.h"

namespace diffc {

/// A differential constraint `X -> Y` over the universe `S`
/// (Definition 3.1): `X ⊆ S` and `Y` a set of subsets of `S`.
///
/// A function `f ∈ F(S)` satisfies `X -> Y` iff its density vanishes on the
/// whole lattice decomposition: `d_f(U) = 0` for every `U ∈ L(X, Y)`
/// (the density-based semantics; see `core/function_ops.h`).
class DifferentialConstraint {
 public:
  /// The constraint `lhs -> rhs`.
  DifferentialConstraint(ItemSet lhs, SetFamily rhs)
      : lhs_(lhs), rhs_(std::move(rhs)) {}

  /// The left-hand side `X`.
  const ItemSet& lhs() const { return lhs_; }
  /// The right-hand family `Y`.
  const SetFamily& rhs() const { return rhs_; }

  /// True iff some member `Y ∈ Y` has `Y ⊆ X` (Definition 3.1 as corrected
  /// in DESIGN.md §2) — exactly when `L(X, Y) = ∅`, so the constraint is
  /// satisfied by every function.
  bool IsTrivial() const { return rhs_.SomeMemberSubsetOf(lhs_); }

  /// True iff this is `atom(U)` for some `U` in an `n`-attribute universe:
  /// `U -> {{z} | z ∈ S∖U}` (Section 4.2).
  bool IsAtomic(int n) const {
    return rhs_ == SetFamily::Singletons(lhs_.ComplementIn(n));
  }

  /// True iff `X` and every member of `Y` lie in the `n`-attribute
  /// universe `{0, ..., n-1}`. Requires 0 <= n <= 64.
  bool InUniverse(int n) const {
    return IsSubset(lhs_.bits() | rhs_.UnionOfMembers().bits(), FullMask(n));
  }

  /// Renders "X -> {Y1, Y2, ...}".
  std::string ToString(const Universe& u) const {
    return lhs_.ToString(u) + " -> " + rhs_.ToString(u);
  }

  friend bool operator==(const DifferentialConstraint& a, const DifferentialConstraint& b) {
    return a.lhs_ == b.lhs_ && a.rhs_ == b.rhs_;
  }
  friend bool operator!=(const DifferentialConstraint& a, const DifferentialConstraint& b) {
    return !(a == b);
  }
  friend bool operator<(const DifferentialConstraint& a, const DifferentialConstraint& b) {
    if (a.lhs_ != b.lhs_) return a.lhs_ < b.lhs_;
    return a.rhs_ < b.rhs_;
  }

 private:
  ItemSet lhs_;
  SetFamily rhs_;
};

/// A set of differential constraints — the `C` of an implication problem.
using ConstraintSet = std::vector<DifferentialConstraint>;

/// The atomic constraint `atom(U) = U -> {{z} | z ∈ S∖U}` (Section 4.2),
/// whose lattice decomposition is exactly `{U}`.
DifferentialConstraint AtomConstraint(int n, const ItemSet& u);

/// Renders a constraint set as "c1; c2; ...".
std::string ConstraintSetToString(const ConstraintSet& c, const Universe& u);

}  // namespace diffc

#endif  // DIFFC_CORE_CONSTRAINT_H_
