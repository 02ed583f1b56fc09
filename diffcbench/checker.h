#ifndef DIFFCBENCH_CHECKER_H_
#define DIFFCBENCH_CHECKER_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "workloads.h"

namespace diffcbench {

/// What came back for one goal, as the load loop records it.
enum class Answer : std::uint8_t {
  kNotImplied = 0,
  kImplied = 1,
  /// The call failed, the per-query status was not OK, or the verdict was
  /// kUnknown. Counted in the failure accounting, not checked.
  kFailed = 2,
};

/// What came back for the goals of one batch.
struct BatchAnswers {
  /// The batch's position in its connection's stream.
  std::uint64_t index = 0;
  /// One entry per goal.
  std::vector<Answer> answers;
  /// One counterexample mask per kNotImplied answer, in order.
  std::vector<std::uint64_t> counterexamples;
};

/// Batches of one connection's answers kept for checking.
inline constexpr std::size_t kAnswerSample = 256;

/// A seeded uniform sample of `kAnswerSample` of one connection's batches
/// (reservoir sampling). The checker regenerates the inputs from the seed
/// instead of storing them, and the sample's memory does not grow with
/// throughput, so it does not move the peak RSS the benchmark reports.
class AnswerLog {
 public:
  AnswerLog(std::uint64_t seed, int connection);

  /// Offers the answers of the connection's next batch, in stream order.
  void Offer(const BatchAnswers& batch);

  /// Batches offered so far.
  std::uint64_t batches() const { return batches_; }
  const std::vector<BatchAnswers>& sample() const { return sample_; }

 private:
  std::mt19937_64 rng_;
  std::uint64_t batches_ = 0;
  std::vector<BatchAnswers> sample_;
};

/// The independent reference an Implied answer is compared with.
enum class Oracle {
  /// `CheckImplication` on the raw premises: trivial, FD closure or SAT,
  /// bypassing the engine, the rewriter and the planner.
  kCore,
  /// `CheckImplicationExhaustive`: Theorem 3.5's lattice containment by
  /// enumeration (small universes only).
  kExhaustive,
};

/// Checks one answer against the raw premises: a NotImplied answer must
/// carry a valid counterexample (`IsValidCounterexample`); an Implied
/// answer must agree with `oracle`. Returns false and fills `error` on a
/// mismatch.
bool VerifyAnswer(int n, const ConstraintSet& raw, const DifferentialConstraint& goal,
                  Answer answer, std::uint64_t counterexample, Oracle oracle,
                  std::string* error);

struct CheckReport {
  /// Batches offered / sampled over all connections.
  std::uint64_t batches = 0;
  std::uint64_t sampled_batches = 0;
  std::uint64_t counterexamples_checked = 0;
  /// Implied answers in the sampled batches.
  std::uint64_t implied_answers = 0;
  /// Implied answers compared with the oracle (a seeded sample of those).
  std::uint64_t implied_checked = 0;
  std::uint64_t mismatches = 0;
  /// The first mismatch, for the log.
  std::string first_error;
};

/// Regenerates every connection's stream and checks the sampled batches:
/// every NotImplied answer in them, and a seeded sample of about
/// `implied_sample` of their Implied ones.
CheckReport CheckAnswers(const WorkloadSpec& spec, std::uint64_t seed,
                         const ConstraintSet& shared, const std::vector<AnswerLog>& logs,
                         std::size_t implied_sample);

/// The oracle used for `spec`'s Implied answers.
Oracle OracleFor(const WorkloadSpec& spec);

}  // namespace diffcbench

#endif  // DIFFCBENCH_CHECKER_H_
