#include "hostprobe.h"

#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace diffcbench {
namespace {

// Keeps the kernel's result observable, so the work is not optimized away.
std::atomic<std::uint64_t> g_sink{0};

double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

std::uint64_t Kernel() {
  constexpr int kIterations = 100'000;
  static thread_local std::array<std::uint32_t, 8192> table{};
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum = 0;
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& t = table[x & (table.size() - 1)];
    if ((t ^ x) & 1) {
      sum += t;
    } else {
      t += static_cast<std::uint32_t>(x >> 32);
    }
    t ^= static_cast<std::uint32_t>(sum);
  }
  return sum;
}

}  // namespace

ProbeTime RunProbe() {
  const std::int64_t t0 = NowNs();
  const double cpu0 = ThreadCpuUs();
  g_sink.fetch_xor(Kernel(), std::memory_order_relaxed);
  return {static_cast<double>(NowNs() - t0) / 1e3, ThreadCpuUs() - cpu0};
}

double MedianProbeCpuUs(int count) {
  std::vector<double> cpu;
  for (int i = 0; i < count; ++i) cpu.push_back(RunProbe().cpu_us);
  return Median(cpu);
}

}  // namespace diffcbench
