#ifndef DIFFCBENCH_STATS_H_
#define DIFFCBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace diffcbench {

/// The latency sample of a failed call: beyond every limit, so a failed
/// call can only push a percentile up, never hide behind it.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// A percentile is reported only with at least this many samples above
/// its rank; below that it is an extrapolation, not a measurement.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank position (1-based) of the `q`-quantile among `n` samples.
std::size_t QuantileRank(std::size_t n, double q);

/// True iff the `q`-quantile of `n` samples has `kMinSamplesBeyond`
/// samples above its rank.
bool PercentileSupported(std::size_t n, double q);

/// The nearest-rank `q`-quantile of `samples`, or nullopt when
/// `PercentileSupported` rejects it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `samples` (mean of the middle pair for an even count); 0 for
/// an empty vector.
double Median(std::vector<double> samples);

/// Calls per latency window: the fewest whose p99 has `kMinSamplesBeyond`
/// samples beyond it.
inline constexpr std::size_t kWindowCalls = 100 * kMinSamplesBeyond;

/// One connection's round trips of one kind, cut into consecutive windows
/// of `kWindowCalls` calls. Each full window keeps its p50, p90 and p99;
/// the reported figure is the median over windows, so a burst of host noise
/// moves a few windows and not the figure. Memory is one window of
/// samples plus three numbers per window, whatever the throughput, so the
/// benchmark's bookkeeping does not move the peak RSS it reports. A
/// partial last window is dropped.
class LatencyWindows {
 public:
  /// Adds one call's round trip in microseconds (`kMiss` when it failed).
  void Add(double us);
  /// Appends `other`'s full windows.
  void Merge(const LatencyWindows& other);

  const std::vector<double>& p50_us() const { return p50_us_; }
  const std::vector<double>& p90_us() const { return p90_us_; }
  const std::vector<double>& p99_us() const { return p99_us_; }
  /// Calls added, partial window included.
  std::size_t calls() const { return calls_; }

 private:
  std::vector<double> current_;
  std::vector<double> p50_us_;
  std::vector<double> p90_us_;
  std::vector<double> p99_us_;
  std::size_t calls_ = 0;
};

/// Call and goal accounting of one load phase. A goal fails when its call
/// failed, its per-query status was not OK, or its verdict was kUnknown.
struct Accounting {
  std::uint64_t calls = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t goals = 0;
  std::uint64_t failed_goals = 0;
  std::uint64_t non_ok_statuses = 0;
  std::uint64_t unknown_verdicts = 0;

  void Merge(const Accounting& o);
  /// failed_goals / goals (0 before the first goal).
  double FailedFraction() const;
};

}  // namespace diffcbench

#endif  // DIFFCBENCH_STATS_H_
