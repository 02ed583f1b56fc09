#ifndef DIFFC_ENGINE_PREPARED_PREMISES_H_
#define DIFFC_ENGINE_PREPARED_PREMISES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "util/status.h"

namespace diffc {

/// How `PreparedPremises::Build` canonicalizes the premise set. The
/// rule-driven rewrite simplifier (`src/rewrite/`, DESIGN.md §14) is the
/// only canonicalizer; `Build` rejects any other setting with
/// InvalidArgument.
struct PrepareOptions {
  /// Must be true: canonicalize through `rewrite::Simplify`.
  bool use_rewriter = true;
  /// `rewrite::SimplifyOptions::level`: 1 = structural rules only,
  /// 2 = full rule set. Must be 1 or 2.
  int simplify_level = 2;

  friend bool operator==(const PrepareOptions& a, const PrepareOptions& b) = default;
};

/// Per-artifact build counters of a `PreparedPremises` compilation.
struct PrepareStats {
  /// Rewriter fixpoint passes / total rule edits.
  std::size_t rewrite_passes = 0;
  std::size_t rewrite_applied = 0;
  /// The simplifier cost triple — (constraints, witness-family members,
  /// total member sizes) — of the input set and of the canonical set.
  std::size_t cost_constraints_before = 0;
  std::size_t cost_members_before = 0;
  std::size_t cost_items_before = 0;
  std::size_t cost_constraints_after = 0;
  std::size_t cost_members_after = 0;
  std::size_t cost_items_after = 0;
  /// (rule name, edit count) per rule the rewriter ran, in application
  /// order.
  std::vector<std::pair<std::string, std::size_t>> rewrite_rule_applied;
  /// Edits `rule` made (0 when it did not run at this level). Each
  /// `drop-trivial`, `absorb-subsumed` or `merge-same-lhs` edit removes
  /// one constraint; `minimize-rhs` and `narrow-members` edits remove a
  /// family member and member items respectively.
  std::size_t RuleEdits(std::string_view rule) const;
  /// Size of the Proposition 5.4 premise translation.
  int translation_vars = 0;
  std::size_t translation_clauses = 0;
  /// True iff the canonical set is in the polynomial FD subclass.
  bool fd_eligible = false;
  /// Wall time per compilation stage and end-to-end, nanoseconds.
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t translate_ns = 0;
  std::uint64_t fd_index_ns = 0;
  std::uint64_t total_ns = 0;
};

/// An immutable compilation of a `ConstraintSet`, built once per premise
/// set and shared (`shared_ptr`) across queries, batches, and engine
/// instances — the prepare side of the engine's prepare/plan/execute
/// pipeline. Holds:
///
///   - the canonical constraints: the fixpoint of `rewrite::Simplify` at
///     the configured level (trivial premises dropped, right-hand
///     families minimized, subsumed constraints absorbed; at level 2 also
///     members narrowed and same-lhs constraints merged), sorted;
///   - the Proposition 5.4 premise CNF translation over the canonical set,
///     compiled once into the solver's flat literal arena;
///   - the FD-subclass closure index (`FdPremiseIndex`), when eligible;
///   - the per-stage build stats.
///
/// Every rewrite rule preserves the closure lattice `L(C)` exactly, so
/// verdicts and counterexamples computed against the artifact are valid
/// against the original set. Thread-safe by immutability: every accessor
/// is a const read of state fixed at `Build` time.
class PreparedPremises {
 public:
  /// Compiles `premises` over an `n`-attribute universe with default
  /// options (rewrite simplifier at level 2). Returns InvalidArgument for
  /// `n` outside [0, 64], a premise with attributes outside the universe
  /// (`ValidateUniverse`), or options other than `use_rewriter` with
  /// `simplify_level` 1 or 2; never fails otherwise.
  static Result<std::shared_ptr<const PreparedPremises>> Build(int n,
                                                               const ConstraintSet& premises);

  /// As above, with explicit canonicalization options.
  static Result<std::shared_ptr<const PreparedPremises>> Build(int n,
                                                               const ConstraintSet& premises,
                                                               const PrepareOptions& options);

  /// The universe size the artifact was compiled for.
  int n() const { return n_; }

  /// A process-unique identity, assigned at build time — the cache /
  /// trace key for "same compilation", cheaper and stricter than
  /// re-comparing constraint sets.
  std::uint64_t id() const { return id_; }

  /// The canonical constraint set (see class comment for the invariants).
  const ConstraintSet& constraints() const { return constraints_; }

  /// The Proposition 5.4 premise clauses over the canonical set, with
  /// their solver compilation (`PremiseTranslation::compiled`).
  const PremiseTranslation& translation() const { return translation_; }

  /// The FD view of the canonical set (`eligible` false when some premise
  /// has a non-singleton right-hand family).
  const FdPremiseIndex& fd_index() const { return fd_index_; }

  /// The build counters.
  const PrepareStats& stats() const { return stats_; }

  /// The canonicalization options the artifact was built with.
  const PrepareOptions& options() const { return options_; }

 private:
  PreparedPremises() = default;

  int n_ = 0;
  PrepareOptions options_;
  std::uint64_t id_ = 0;
  ConstraintSet constraints_;
  PremiseTranslation translation_;
  FdPremiseIndex fd_index_;
  PrepareStats stats_;
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_PREPARED_PREMISES_H_
