// Sample summaries for the benchmark report.
//
// A percentile is reported only when at least ten samples lie beyond it, so a
// tail figure always rests on more than a handful of observations; the
// sample count is printed beside every figure.
#ifndef MOIRA_PERFBENCH_STATS_H_
#define MOIRA_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

// True when at least ten of `n` samples lie strictly beyond percentile `p`.
inline bool HasTenBeyond(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= 10;
}

// The fewest samples for which percentile `p` may be reported.
inline size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (!HasTenBeyond(n, p)) {
    ++n;
  }
  return n;
}

// Nearest-rank percentile, or nullopt when fewer than ten samples lie beyond
// it.
inline std::optional<double> Percentile(std::vector<double> values, double p) {
  if (!HasTenBeyond(values.size(), p)) {
    return std::nullopt;
  }
  size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

// Plain median (used where every sample is one of a few repetitions, such
// as set-up time, so the ten-beyond rule does not apply).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_STATS_H_
