#include "checker.h"

#include <algorithm>

#include "core/counterexample.h"
#include "core/implication.h"
#include "util/random.h"

namespace diffcbench {

namespace {

constexpr std::uint64_t kSampleTag = 0xc4ec0001;
constexpr std::uint64_t kReservoirTag = 0xc4ec0100;

}  // namespace

Oracle OracleFor(const WorkloadSpec& spec) {
  return spec.kind == WorkloadKind::kChurn ? Oracle::kExhaustive : Oracle::kCore;
}

bool VerifyAnswer(int n, const ConstraintSet& raw, const DifferentialConstraint& goal,
                  Answer answer, std::uint64_t counterexample, Oracle oracle,
                  std::string* error) {
  switch (answer) {
    case Answer::kFailed:
      return true;
    case Answer::kNotImplied:
      if (diffc::IsValidCounterexample(n, raw, goal, diffc::ItemSet(counterexample))) return true;
      *error = "NotImplied with an invalid counterexample";
      return false;
    case Answer::kImplied:
      break;
  }
  diffc::Result<diffc::ImplicationOutcome> ref =
      oracle == Oracle::kExhaustive ? diffc::CheckImplicationExhaustive(n, raw, goal, n)
                                    : diffc::CheckImplication(n, raw, goal);
  if (!ref.ok()) {
    *error = "oracle failed: " + ref.status().ToString();
    return false;
  }
  if (ref->verdict == diffc::ImplicationOutcome::kImplied) return true;
  *error = "Implied, but the oracle found a counterexample";
  return false;
}

AnswerLog::AnswerLog(std::uint64_t seed, int connection)
    : rng_(DeriveSeed(seed, kReservoirTag + static_cast<std::uint64_t>(connection))) {}

void AnswerLog::Offer(const BatchAnswers& batch) {
  const std::uint64_t index = batches_++;
  std::size_t slot = sample_.size();
  if (sample_.size() == kAnswerSample) {
    slot = std::uniform_int_distribution<std::uint64_t>(0, index)(rng_);
    if (slot >= kAnswerSample) return;
  } else {
    sample_.emplace_back();
  }
  sample_[slot] = batch;
  sample_[slot].index = index;
}

CheckReport CheckAnswers(const WorkloadSpec& spec, std::uint64_t seed,
                         const ConstraintSet& shared, const std::vector<AnswerLog>& logs,
                         std::size_t implied_sample) {
  CheckReport report;
  for (const AnswerLog& log : logs) {
    report.batches += log.batches();
    report.sampled_batches += log.sample().size();
    for (const BatchAnswers& b : log.sample()) {
      report.implied_answers += static_cast<std::uint64_t>(
          std::count(b.answers.begin(), b.answers.end(), Answer::kImplied));
    }
  }
  const double keep =
      report.implied_answers == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(implied_sample) /
                              static_cast<double>(report.implied_answers));
  diffc::Rng sampler(DeriveSeed(seed, kSampleTag));
  const Oracle oracle = OracleFor(spec);

  for (std::size_t c = 0; c < logs.size(); ++c) {
    std::vector<const BatchAnswers*> sampled;
    for (const BatchAnswers& b : logs[c].sample()) sampled.push_back(&b);
    std::sort(sampled.begin(), sampled.end(),
              [](const BatchAnswers* a, const BatchAnswers* b) { return a->index < b->index; });
    InputStream stream(spec, seed, static_cast<int>(c), shared);
    Batch batch;
    std::uint64_t next = 0;
    for (const BatchAnswers* answers : sampled) {
      while (next <= answers->index) {
        stream.Next(&batch);
        ++next;
      }
      const ConstraintSet& raw = spec.kind == WorkloadKind::kChurn ? batch.premises : shared;
      std::size_t cx_index = 0;
      for (std::size_t g = 0; g < batch.goals.size(); ++g) {
        const Answer answer = answers->answers.at(g);
        std::uint64_t cx = 0;
        if (answer == Answer::kNotImplied) {
          cx = answers->counterexamples.at(cx_index++);
          ++report.counterexamples_checked;
        } else if (answer == Answer::kImplied) {
          if (!sampler.Bernoulli(keep)) continue;
          ++report.implied_checked;
        } else {
          continue;
        }
        std::string error;
        if (!VerifyAnswer(spec.n, raw, batch.goals[g], answer, cx, oracle, &error) &&
            report.mismatches++ == 0) {
          report.first_error = "connection " + std::to_string(c) + " batch " +
                               std::to_string(answers->index) + ": " + error;
        }
      }
    }
  }
  return report;
}

}  // namespace diffcbench
