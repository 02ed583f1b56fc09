// Checks of the benchmark's own statistics and checker, run before every
// measurement: a benchmark whose percentiles, failure accounting or
// verdict checks are wrong must not report numbers.
#include "selftest.h"

#include <cmath>

#include "core/implication.h"
#include "loadgen.h"
#include "stats.h"

namespace diffcbench {

namespace {

class Failures {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) out_.push_back(what);
  }
  std::vector<std::string> Take() { return std::move(out_); }

 private:
  std::vector<std::string> out_;
};

std::vector<double> OneTo(int count) {
  std::vector<double> v;
  for (int i = 1; i <= count; ++i) v.push_back(i);
  return v;
}

void TestWindows(Failures* f) {
  LatencyWindows w;
  for (int i = 0; i < 2999; ++i) w.Add(1.0 + i % 100);
  f->Expect(w.p50_us().size() == 2 && w.calls() == 2999,
            "2999 calls fill two windows; the partial third is dropped");
  f->Expect(w.p99_us().size() == 2 && w.p99_us()[0] == 99.0, "each window keeps its p99");
}

void TestPercentiles(Failures* f) {
  f->Expect(PercentileSupported(1000, 0.99), "p99 of 1000 samples has 10 beyond it");
  f->Expect(!PercentileSupported(999, 0.99), "p99 of 999 samples has only 9 beyond it");
  f->Expect(!Percentile(OneTo(999), 0.99).has_value(), "an unsupported p99 is not reported");
  f->Expect(!PercentileSupported(19, 0.5), "p50 of 19 samples has only 9 beyond it");
  f->Expect(Percentile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  f->Expect(Percentile(OneTo(1000), 0.5) == 500.0, "p50 of 1..1000 is 500");
  f->Expect(Median({3, 1, 2, 4}) == 2.5, "median of an even count averages the middle pair");
}

void TestFailedCallIsAMiss(Failures* f) {
  PhaseResult phase;
  BatchAnswers answers;
  // 989 fast calls and 11 failed ones in one window: more than 1% failed,
  // so its p99 must read as missed however fast the rest were.
  for (int i = 0; i < 989; ++i) {
    diffc::net::BatchResultMsg reply;
    reply.results.resize(2);
    reply.results[0].verdict = diffc::ImplicationOutcome::kImplied;
    reply.results[1].verdict = diffc::ImplicationOutcome::kUnknown;
    RecordCheck(reply, 2, i, 1.0, &phase, &answers);
  }
  for (int i = 0; i < 11; ++i) {
    RecordCheck(diffc::Status::Unavailable("connection reset"), 2, 989 + i, 1.0, &phase,
                &answers);
  }
  const LatencyWindows& w = phase.checks;
  f->Expect(w.p99_us().size() == 1 && std::isinf(w.p99_us()[0]),
            "a failed call counts beyond every limit");
  f->Expect(w.p50_us().size() == 1 && w.p50_us()[0] == 1.0,
            "failed calls do not move a p50 they cannot reach");
  f->Expect(phase.acct.calls == 1000 && phase.acct.failed_calls == 11, "failed calls are counted");
  f->Expect(phase.acct.goals == 2000, "goals of failed calls count as attempted");
  f->Expect(phase.acct.unknown_verdicts == 989, "kUnknown verdicts are counted");
  f->Expect(phase.acct.failed_goals == 22 + 989, "failed calls and kUnknown verdicts fail goals");
  f->Expect(answers.answers.size() == 2 && answers.answers[0] == Answer::kFailed,
            "a failed call's goals are recorded as failed");
  f->Expect(phase.goals_by_cycle.size() == 1 && phase.goals_by_cycle[0] == 989,
            "only conclusive verdicts count as answered goals");
}

// The true answers of the first `batches` batches of a churn stream, all
// of them in the sample.
std::vector<BatchAnswers> TrueAnswers(const WorkloadSpec& spec, std::uint64_t seed, int batches) {
  std::vector<BatchAnswers> out;
  InputStream stream(spec, seed, 0, ConstraintSet());
  Batch batch;
  for (int b = 0; b < batches; ++b) {
    stream.Next(&batch);
    BatchAnswers& answers = out.emplace_back();
    for (const DifferentialConstraint& goal : batch.goals) {
      diffc::Result<diffc::ImplicationOutcome> r =
          diffc::CheckImplicationExhaustive(spec.n, batch.premises, goal, spec.n);
      if (!r.ok()) {
        answers.answers.push_back(Answer::kFailed);
      } else if (r->implied) {
        answers.answers.push_back(Answer::kImplied);
      } else {
        answers.answers.push_back(Answer::kNotImplied);
        answers.counterexamples.push_back(r->counterexample->bits());
      }
    }
  }
  return out;
}

std::uint64_t Mismatches(const WorkloadSpec& spec, std::uint64_t seed,
                         const std::vector<BatchAnswers>& batches) {
  AnswerLog log(seed, 0);
  for (const BatchAnswers& b : batches) log.Offer(b);
  return CheckAnswers(spec, seed, {}, {log}, kAnswerSample * 16).mismatches;
}

void TestFlippedVerdictFails(Failures* f) {
  const WorkloadSpec& spec = *FindWorkload("churn");
  const std::uint64_t seed = 7;
  const std::vector<BatchAnswers> truth = TrueAnswers(spec, seed, 4);
  f->Expect(Mismatches(spec, seed, truth) == 0, "true answers pass the checker");

  bool flipped_implied = false, flipped_not_implied = false;
  for (std::size_t b = 0; b < truth.size(); ++b) {
    for (std::size_t g = 0, cx = 0; g < truth[b].answers.size(); ++g) {
      std::vector<BatchAnswers> bad = truth;
      BatchAnswers& a = bad[b];
      const auto at = static_cast<std::ptrdiff_t>(cx);
      if (a.answers[g] == Answer::kImplied && !flipped_implied) {
        // Implied read as NotImplied: no counterexample can be valid.
        a.answers[g] = Answer::kNotImplied;
        a.counterexamples.insert(a.counterexamples.begin() + at, 0);
        f->Expect(Mismatches(spec, seed, bad) == 1, "a flipped Implied verdict fails the run");
        flipped_implied = true;
      } else if (a.answers[g] == Answer::kNotImplied) {
        if (!flipped_not_implied) {
          a.answers[g] = Answer::kImplied;
          a.counterexamples.erase(a.counterexamples.begin() + at);
          f->Expect(Mismatches(spec, seed, bad) == 1,
                    "a flipped NotImplied verdict fails the run");
          flipped_not_implied = true;
        }
        ++cx;
      }
    }
  }
  f->Expect(flipped_implied && flipped_not_implied, "the self-test stream has both verdicts");
}

}  // namespace

std::vector<std::string> SelfTest() {
  Failures f;
  TestPercentiles(&f);
  TestWindows(&f);
  TestFailedCallIsAMiss(&f);
  TestFlippedVerdictFails(&f);
  return f.Take();
}

}  // namespace diffcbench
