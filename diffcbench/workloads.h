#ifndef DIFFCBENCH_WORKLOADS_H_
#define DIFFCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/constraint.h"
#include "util/random.h"

namespace diffcbench {

using diffc::ConstraintSet;
using diffc::DifferentialConstraint;

/// A 64-bit mix of `seed` and `tag`, for deriving independent streams.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag);

enum class WorkloadKind {
  /// Fresh random goals that never repeat, against one shared set.
  kAdhoc,
  /// Goals augmented from the shared set's own premises.
  kRevalidate,
  /// Register, check, release: a fresh premise set per cycle.
  kChurn,
};

/// One named workload. Sizes are chosen against the engine's own caches:
/// the 4096-entry witness-set cache and the 256-entry prepared-premises
/// cache (README.md has the rationale of each).
struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  /// Universe size.
  int n;
  /// Premises per set: one shared set registered during setup, or (churn)
  /// a fresh set per cycle.
  int premises;
  /// Goals per CHECK_BATCH.
  int goals_per_batch;
  /// adhoc, revalidate: the share of every second of load in which the
  /// connections re-register the shared set instead of checking batches
  /// (0: never; churn registers in every cycle).
  double register_share;
  /// Untimed batches per connection at the end of setup.
  int warmup_batches;
  /// Batches of connection 0's stream replayed layer by layer when traced.
  int replay_batches;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The premise set registered during setup (adhoc, revalidate); empty for
/// churn. Fixed per workload: seeds vary the goal streams only.
ConstraintSet SharedPremises(const WorkloadSpec& spec);

/// One request's worth of inputs.
struct Batch {
  /// churn: this cycle's fresh premise set; otherwise empty (the shared
  /// set applies).
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
};

/// The deterministic input stream of one connection: the same (spec,
/// seed, connection) always yields the same batches in the same order, so
/// the checker can regenerate what was sent instead of storing it.
class InputStream {
 public:
  InputStream(const WorkloadSpec& spec, std::uint64_t seed, int connection,
              const ConstraintSet& shared);

  InputStream(const InputStream&) = delete;
  InputStream& operator=(const InputStream&) = delete;

  void Next(Batch* out);

 private:
  DifferentialConstraint AdhocGoal();
  DifferentialConstraint RevalidateGoal();
  ConstraintSet ChurnPremises();

  const WorkloadSpec& spec_;
  const int connection_;
  const ConstraintSet& shared_;
  diffc::Rng rng_;
  /// adhoc: a fixed-size filter of the right-hand families this stream
  /// has sent, indexed by family hash. A set bit rejects the family, so
  /// no family repeats (a colliding fresh one is skipped too). The two
  /// connections draw from disjoint hash classes, so no family repeats
  /// anywhere in a run.
  std::vector<bool> sent_;
};


}  // namespace diffcbench

#endif  // DIFFCBENCH_WORKLOADS_H_
