// Streaming summary statistics and empirical distributions.
//
// Every figure in the paper reports either per-instance scatter series with a
// printed average (Fig 6, 7) or a CDF (Fig 8); these types back both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace imobif::util {

/// Welford streaming mean/variance plus min/max.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution over a stored sample.
class Empirical {
 public:
  void add(double x) { sorted_ = false, data_.push_back(x); }
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Quantile in [0,1] by linear interpolation. Requires non-empty.
  double quantile(double q) const;

  double mean() const;
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

  /// Sorted copy of the sample (for CDF plotting).
  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
};

/// Percentile-bootstrap confidence interval for the sample mean: resample
/// with replacement `resamples` times, take the (1-confidence)/2 and
/// 1-(1-confidence)/2 quantiles of the resampled means. Deterministic in
/// `seed`. Requires a non-empty sample and confidence in (0, 1).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval bootstrap_mean_ci(const std::vector<double>& samples,
                           double confidence = 0.95,
                           std::size_t resamples = 2000,
                           std::uint64_t seed = 0x5eed);

}  // namespace imobif::util
