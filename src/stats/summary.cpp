#include "tmwia/stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tmwia::stats {

void Summary::add(double x) {
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  sum_ += x;
}

double Summary::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double Summary::max() const {
  if (count_ == 0) throw std::logic_error("Summary::max on empty summary");
  return max_;
}

Proportion wilson_interval(std::size_t successes, std::size_t trials, double z) {
  if (trials == 0) return {0.0, 0.0, 1.0};
  const auto n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {p, std::max(0.0, center - half), std::min(1.0, center + half)};
}

LinearFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument("fit_line: need >= 2 equal-length samples");
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit f;
  if (denom == 0.0) {
    f.intercept = sy / n;
    return f;
  }
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double sst = syy - sy * sy / n;
  if (sst > 0.0) {
    double ssr = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double e = ys[i] - (f.intercept + f.slope * xs[i]);
      ssr += e * e;
    }
    f.r2 = 1.0 - ssr / sst;
  } else {
    f.r2 = 1.0;
  }
  return f;
}

LinearFit fit_loglog(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0.0 || ys[i] <= 0.0) {
      throw std::invalid_argument("fit_loglog: data must be positive");
    }
    lx[i] = std::log2(xs[i]);
    ly[i] = std::log2(ys[i]);
  }
  return fit_line(lx, ly);
}

}  // namespace tmwia::stats
