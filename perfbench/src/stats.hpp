// Order statistics for latency reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank quantile: the ceil(q·n)-th smallest value (the smallest for
// q = 0). Returns 0 for an empty sample. Unlike ckp::percentile, which
// interpolates, the result is a measured sample, so "samples beyond it" is
// an exact count.
double quantile(std::vector<double> values, double q);

// Samples strictly beyond the nearest-rank `per_mille` percentile of a
// sample of `n`: n − ceil(n·per_mille/1000).
std::size_t samples_beyond(std::size_t n, int per_mille);

// The highest of p50, p75, p90, p95, p99, p99.9 (in per mille) that still
// has at least `min_beyond` samples beyond it in a sample of `n`; 0 when
// not even p50 qualifies.
int tail_per_mille(std::size_t n, std::size_t min_beyond = 10);

}  // namespace perfbench
