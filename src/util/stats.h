// Summary statistics and empirical CDFs for experiment reporting.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/time.h"

namespace ccml {

/// Online accumulator for min / max / mean / variance (Welford).
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double min() const;
  double max() const;
  double mean() const;
  double variance() const;  ///< sample variance; 0 when n < 2
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double min_ = 0, max_ = 0, mean_ = 0, m2_ = 0, sum_ = 0;
};

/// Empirical distribution over a batch of samples.  Percentile queries use
/// linear interpolation between order statistics.
class Cdf {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  /// Fraction of samples <= x.
  double fraction_at_or_below(double x) const;

  /// Evenly spaced (value, cumulative fraction) points for plotting.
  std::vector<std::pair<double, double>> curve(std::size_t points = 50) const;

  const std::vector<double>& sorted() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Iteration times from index `warmup` on, in milliseconds.
Cdf post_warmup_cdf(const std::vector<Duration>& iterations,
                    std::size_t warmup);

}  // namespace ccml
