// Small statistics toolkit used by tests and benches: per-trial
// summaries (mean and max), binomial confidence intervals for success
// probabilities (Theorems 3.1/4.4/5.4 are "with probability ..."
// statements), and log-log regression for empirical scaling exponents
// (is the cost curve polylog or polynomial?).
#pragma once

#include <cstddef>
#include <span>

namespace tmwia::stats {

/// Collects scalar observations: O(1) count, sum and maximum.
class Summary {
 public:
  void add(double x);

  /// Mean of the observations (0 when there are none).
  [[nodiscard]] double mean() const;
  /// Largest observation; throws std::logic_error when there are none.
  [[nodiscard]] double max() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Wilson score interval for a binomial proportion.
struct Proportion {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Wilson interval for `successes` out of `trials` at ~95% (z = 1.96) by
/// default. trials == 0 yields {0, 0, 1}.
Proportion wilson_interval(std::size_t successes, std::size_t trials, double z = 1.96);

/// Least-squares fit y = a + b*x. Returns {a, b}; b is the slope.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Fit log(y) = a + b*log(x): the empirical polynomial degree of y(x).
/// A polylog quantity fits with slope -> 0 as x grows; a linear one
/// with slope ~1. Requires positive data.
LinearFit fit_loglog(std::span<const double> xs, std::span<const double> ys);

}  // namespace tmwia::stats
