#ifndef DIFFCBENCH_SELFTEST_H_
#define DIFFCBENCH_SELFTEST_H_

#include <string>
#include <vector>

namespace diffcbench {

/// Tests the benchmark's own statistics and checker: a percentile needs
/// ten samples beyond it, a failed call counts as a miss, and a flipped
/// verdict fails the check. Returns the failed expectations (empty when
/// every one holds).
std::vector<std::string> SelfTest();

}  // namespace diffcbench

#endif  // DIFFCBENCH_SELFTEST_H_
