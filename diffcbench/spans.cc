#include "spans.h"

#include <cstdio>
#include <cstring>

namespace diffcbench {

std::int32_t SpanLog::Add(std::uint64_t request, std::int32_t parent, const char* name,
                          std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{request, parent, name, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"request\":%llu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, static_cast<unsigned long long>(s.request), s.parent, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace diffcbench
