#ifndef DIFFCBENCH_SPANS_H_
#define DIFFCBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace diffcbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` indexes the enclosing span in the same log
/// (-1 for a root).
struct Span {
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  /// Static string: the per-layer metric the span feeds ("net.check_encode").
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// An in-memory span recorder, written out once when the run ends. Not
/// thread-safe: each load thread keeps its own log and the logs are merged
/// afterwards.
class SpanLog {
 public:
  /// Records a finished span; returns its index.
  std::int32_t Add(std::uint64_t request, std::int32_t parent, const char* name,
                   std::int64_t start_ns, std::int64_t end_ns);

  /// Opens a span that `End` closes; returns its index (children may name
  /// it as their parent in between).
  std::int32_t Begin(std::uint64_t request, std::int32_t parent, const char* name) {
    return Add(request, parent, name, NowNs(), 0);
  }
  void End(std::int32_t span) { spans_[static_cast<std::size_t>(span)].end_ns = NowNs(); }

  /// Runs `fn()` inside a span and returns its result.
  template <typename Fn>
  auto Time(std::uint64_t request, std::int32_t parent, const char* name, Fn&& fn) {
    const std::int64_t start = NowNs();
    auto result = fn();
    Add(request, parent, name, start, NowNs());
    return result;
  }

  /// Appends `other`'s spans, re-basing its parent indices.
  void Merge(const SpanLog& other);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const char* name) const;

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool WriteJsonLines(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace diffcbench

#endif  // DIFFCBENCH_SPANS_H_
