#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace imobif::util {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Empirical::add_all(const std::vector<double>& xs) {
  data_.insert(data_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

const std::vector<double>& Empirical::sorted() const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
  return data_;
}

double Empirical::quantile(double q) const {
  if (data_.empty()) throw std::logic_error("quantile of empty sample");
  q = std::clamp(q, 0.0, 1.0);
  const auto& s = sorted();
  if (s.size() == 1) return s.front();
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double Empirical::mean() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum / static_cast<double>(data_.size());
}

Interval bootstrap_mean_ci(const std::vector<double>& samples,
                           double confidence, std::size_t resamples,
                           std::uint64_t seed) {
  if (samples.empty()) {
    throw std::invalid_argument("bootstrap_mean_ci: empty sample");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("bootstrap_mean_ci: bad confidence");
  }
  if (resamples == 0) {
    throw std::invalid_argument("bootstrap_mean_ci: zero resamples");
  }
  Rng rng(seed);
  Empirical means;
  const std::size_t n = samples.size();
  for (std::size_t r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += samples[rng.uniform_int(0, n - 1)];
    }
    means.add(sum / static_cast<double>(n));
  }
  const double tail = (1.0 - confidence) / 2.0;
  return Interval{means.quantile(tail), means.quantile(1.0 - tail)};
}

}  // namespace imobif::util
