#include "stats/ks.h"

#include <algorithm>
#include <cmath>

namespace d3l {

bool IsKsSample(std::span<const double> sample) {
  for (size_t i = 0; i < sample.size(); ++i) {
    if (std::isnan(sample[i])) return false;
    if (i > 0 && sample[i] < sample[i - 1]) return false;
  }
  return true;
}

double KsStatistic(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 1.0;
  size_t i = 0;
  size_t j = 0;
  double d = 0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return d;
}

double KsPValue(double d, size_t n, size_t m) {
  if (n == 0 || m == 0) return 1.0;
  double en = std::sqrt(static_cast<double>(n) * static_cast<double>(m) /
                        static_cast<double>(n + m));
  double lambda = (en + 0.12 + 0.11 / en) * d;
  // Kolmogorov tail series: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
  double sum = 0;
  double sign = 1;
  for (int k = 1; k <= 100; ++k) {
    double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  double p = 2.0 * sum;
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace d3l
