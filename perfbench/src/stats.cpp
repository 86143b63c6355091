#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[rank == 0 ? 0 : std::min(rank, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, int per_mille) {
  const std::size_t pm = static_cast<std::size_t>(per_mille);
  const std::size_t rank = (n * pm + 999) / 1000;
  return n - rank;
}

int tail_per_mille(std::size_t n, std::size_t min_beyond) {
  static constexpr int kCandidates[] = {999, 990, 950, 900, 750, 500};
  for (const int pm : kCandidates) {
    if (samples_beyond(n, pm) >= min_beyond) return pm;
  }
  return 0;
}

}  // namespace perfbench
