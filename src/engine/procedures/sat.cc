#include <memory>

#include "engine/procedures/procedure.h"

namespace diffc {

/// The complete procedure: Proposition 5.4 CNF refuted / satisfied by
/// DPLL, using the premise clauses compiled into the prepared artifact.
/// Returns ResourceExhausted past the decision budget, which is what
/// arms the exhaustive fallback.
class SatProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kSat; }
  const char* name() const override { return "sat"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& /*query*/) const override {
    return Applicability::kYes;
  }

  double EstimateCost(const PreparedPremises& premises,
                      const ProcedureQuery& query) const override {
    // Worst-case exponential; the base constant pins the tier (after every
    // polynomial procedure), the size term tracks the CNF monotonically.
    return 1e4 + 1e-2 * (10.0 * static_cast<double>(premises.translation().clauses.size()) +
                         static_cast<double>(query.goal->rhs().size()));
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* ctx) const override {
    return CheckImplicationSatTranslated(query.n, premises.translation(), *query.goal,
                                         &ctx->stats->solver, ctx->budgets.max_decisions,
                                         ctx->stop);
  }
};

DIFFC_REGISTER_PROCEDURE(kSat, SatProcedure)

}  // namespace diffc
