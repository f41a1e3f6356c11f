// Order statistics for the benchmark's per-round samples.

#ifndef WAVEBENCH_STATS_H_
#define WAVEBENCH_STATS_H_

#include <algorithm>
#include <vector>

namespace wavebench {

/// The q-quantile of `v` (0 <= q <= 1), linearly interpolated between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace wavebench

#endif  // WAVEBENCH_STATS_H_
