#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it.
constexpr size_t kMinSamplesBeyond = 10;

/// Samples ranked strictly above the q-quantile of n samples: n - ceil(q n).
size_t SamplesBeyond(size_t n, double q);

/// True when n samples support reporting the q-quantile.
inline bool Supports(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Smallest sample count that supports the q-quantile.
size_t SamplesNeeded(double q);

/// Linearly interpolated q-quantile (0 for no samples).
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Returns freed heap pages to the system, restarts the peak resident set
/// size from the current one (Linux clear_refs), and returns the current
/// resident set size, in MB (2^20 bytes).
double ResetPeakRss();

/// Peak resident set size since the last ResetPeakRss, in MB. Where the
/// kernel refuses the reset, the peak since the process started.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
