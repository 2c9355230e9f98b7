#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace syrkbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double iqr(const std::vector<double>& v) {
  return quantile(v, 0.75) - quantile(v, 0.25);
}

double tail_percentile(std::size_t n) {
  double percentile = 50.0;
  for (double p : {75.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) < 10.0) break;
    percentile = p;
  }
  return percentile;
}

}  // namespace syrkbench
