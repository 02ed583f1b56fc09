#include "stats.h"

#include <algorithm>
#include <cmath>

namespace diffcbench {

std::size_t QuantileRank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

bool PercentileSupported(std::size_t n, double q) {
  return n > 0 && n - QuantileRank(n, q) >= kMinSamplesBeyond;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (!PercentileSupported(samples.size(), q)) return std::nullopt;
  const std::size_t k = QuantileRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[m] : (samples[m - 1] + samples[m]) / 2.0;
}

void LatencyWindows::Add(double us) {
  if (current_.empty()) current_.reserve(kWindowCalls);
  current_.push_back(us);
  ++calls_;
  if (current_.size() < kWindowCalls) return;
  p50_us_.push_back(*Percentile(current_, 0.5));
  p90_us_.push_back(*Percentile(current_, 0.9));
  p99_us_.push_back(*Percentile(current_, 0.99));
  current_.clear();
}

void LatencyWindows::Merge(const LatencyWindows& other) {
  p50_us_.insert(p50_us_.end(), other.p50_us_.begin(), other.p50_us_.end());
  p90_us_.insert(p90_us_.end(), other.p90_us_.begin(), other.p90_us_.end());
  p99_us_.insert(p99_us_.end(), other.p99_us_.begin(), other.p99_us_.end());
  calls_ += other.calls_;
}

void Accounting::Merge(const Accounting& o) {
  calls += o.calls;
  failed_calls += o.failed_calls;
  goals += o.goals;
  failed_goals += o.failed_goals;
  non_ok_statuses += o.non_ok_statuses;
  unknown_verdicts += o.unknown_verdicts;
}

double Accounting::FailedFraction() const {
  return goals == 0 ? 0.0 : static_cast<double>(failed_goals) / static_cast<double>(goals);
}

}  // namespace diffcbench
