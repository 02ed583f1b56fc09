#ifndef DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_
#define DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "engine/engine_options.h"
#include "engine/prepared_premises.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffc {

/// One implication query against a prepared premise set.
struct ProcedureQuery {
  int n = 0;
  const DifferentialConstraint* goal = nullptr;
};

/// How a procedure relates to a query, per `DecisionProcedureImpl::CanDecide`.
enum class Applicability {
  /// The procedure cannot run on this (premises, query) pair.
  kNo = 0,
  /// The procedure can run; the planner schedules it by estimated cost.
  kYes,
  /// The procedure can run, but only as a fallback: the planner schedules
  /// it after every `kYes` procedure and runs it only when a prior
  /// procedure exhausted a resource budget (the exhaustive enumerator
  /// backing up a budget-stopped SAT search).
  kFallback,
};

/// Solver budgets of one attempt, doubled per escalation retry.
struct ProcedureBudgets {
  std::uint64_t max_decisions = 0;
  std::size_t witness_max_results = 0;
};

/// Mutable per-attempt state handed to `Decide`: the engine options and
/// budgets in force, the cooperative stop handle, the tracer (never null;
/// disabled when tracing is off), and the query stats the procedure
/// annotates (cache flags, solver counters).
struct ProcedureContext {
  const EngineOptions* options = nullptr;
  ProcedureBudgets budgets;
  StopCheck* stop = nullptr;
  obs::Tracer* tracer = nullptr;
  QueryStats* stats = nullptr;
};

/// A first-class decision procedure: one strategy for deciding
/// `premises |= goal`, pluggable into the `QueryPlanner`.
///
/// Contract for `Decide`:
///   - a conclusive answer returns OK with verdict kImplied / kNotImplied;
///   - an *inconclusive* pass (the procedure ran but could not settle the
///     query, e.g. an interval cover needing several premises) returns OK
///     with verdict kUnknown — the planner moves to the next procedure;
///   - ResourceExhausted reports a blown budget — the planner records it
///     and continues (enabling `Applicability::kFallback` procedures);
///   - DeadlineExceeded / Cancelled from the stop handle, and any other
///     error, terminate the query with that status.
///
/// Implementations must be stateless (or internally synchronized): one
/// instance serves every engine and thread in the process.
class DecisionProcedureImpl {
 public:
  virtual ~DecisionProcedureImpl() = default;

  /// The enum value this implementation decides for.
  virtual DecisionProcedure id() const = 0;

  /// Stable name; must equal `DecisionProcedureName(id())`.
  virtual const char* name() const = 0;

  /// Whether (and how) the procedure applies to this query.
  virtual Applicability CanDecide(const PreparedPremises& premises,
                                  const ProcedureQuery& query) const = 0;

  /// Estimated cost in abstract work units; the planner orders applicable
  /// procedures by ascending estimate. Zero means "free" (the planner runs
  /// zero-cost procedures before its first deadline sample, so an O(1)
  /// certain answer beats a DeadlineExceeded).
  virtual double EstimateCost(const PreparedPremises& premises,
                              const ProcedureQuery& query) const = 0;

  /// Runs the procedure (see the class contract above).
  virtual Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                            const ProcedureQuery& query,
                                            ProcedureContext* ctx) const = 0;
};

/// The process-wide procedure registry. Registration happens during static
/// initialization (via `DIFFC_REGISTER_PROCEDURE`); lookups snapshot the
/// table, so engines take no lock per query.
class ProcedureRegistry {
 public:
  static ProcedureRegistry& Global();

  /// Registers `impl` for `id`. Called by the registration macro; safe
  /// during static initialization.
  void Register(DecisionProcedure id, std::unique_ptr<const DecisionProcedureImpl> impl)
      EXCLUDES(mu_);

  /// The registered procedures, in registration order (unspecified across
  /// translation units; the planner orders by cost, not registration).
  std::vector<const DecisionProcedureImpl*> Snapshot() const EXCLUDES(mu_);

  /// The procedure registered for `id`, or null.
  const DecisionProcedureImpl* Find(DecisionProcedure id) const EXCLUDES(mu_);

 private:
  ProcedureRegistry() = default;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<const DecisionProcedureImpl>> procedures_ GUARDED_BY(mu_);
};

/// Registration hook behind `DIFFC_REGISTER_PROCEDURE`; returns true so it
/// can initialize a namespace-scope constant.
bool RegisterDecisionProcedure(DecisionProcedure id,
                               std::unique_ptr<const DecisionProcedureImpl> impl);

/// Forces the linker to keep the built-in procedure translation units (a
/// static library drops unreferenced objects, self-registering statics
/// included); referenced by `ProcedureRegistry::Global`. Returns the
/// number of anchored units.
int ForceLinkBuiltinProcedures();

/// Self-registers a `DecisionProcedureImpl` for `enum_value` (a bare
/// `DecisionProcedure` enumerator, e.g. `kSat` — spelled out so the
/// project linter can check enum/registration drift) and emits the
/// force-link anchor `registry.cc` references for built-in units. Use at
/// namespace `diffc` scope.
#define DIFFC_REGISTER_PROCEDURE(enum_value, ClassName)                            \
  int ForceLinkProcedure_##ClassName() { return 0; }                               \
  namespace {                                                                      \
  [[maybe_unused]] const bool registered_##ClassName = RegisterDecisionProcedure(  \
      DecisionProcedure::enum_value, std::make_unique<ClassName>());               \
  }

}  // namespace diffc

#endif  // DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_
