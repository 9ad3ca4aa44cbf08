#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/result.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. A traced run first measures an untraced
  /// phase of half this length, for trace.overhead_ratio.
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Runs one benchmark run, writes a readable report to `log` and returns
/// the one-line JSON result.
laws::Result<std::string> RunBenchmark(const RunConfig& config,
                                       std::FILE* log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
