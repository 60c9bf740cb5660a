#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace ccml {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::min() const { assert(n_ > 0); return min_; }
double Summary::max() const { assert(n_ > 0); return max_; }
double Summary::mean() const { assert(n_ > 0); return mean_; }

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

double Cdf::mean() const {
  assert(!samples_.empty());
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p = 100.0 * static_cast<double>(i) /
                     static_cast<double>(points - 1);
    out.emplace_back(percentile(p), p / 100.0);
  }
  return out;
}

const std::vector<double>& Cdf::sorted() const {
  ensure_sorted();
  return samples_;
}

Cdf post_warmup_cdf(const std::vector<Duration>& iterations,
                    std::size_t warmup) {
  Cdf cdf;
  for (std::size_t k = warmup; k < iterations.size(); ++k) {
    cdf.add(iterations[k].to_millis());
  }
  return cdf;
}

}  // namespace ccml
