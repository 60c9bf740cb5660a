#include "obs/analytics/hdr_histogram.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ccml {

namespace {

// Exponent e such that value lies in [2^(e-1), 2^e), i.e. frexp's exponent
// for the normalized mantissa in [0.5, 1).
int octave_of(double value) {
  int e = 0;
  (void)std::frexp(value, &e);
  return e;
}

}  // namespace

HdrHistogram::HdrHistogram(HdrHistogramConfig config) : config_(config) {
  if (!(config_.min_value > 0.0)) {
    throw std::invalid_argument("HdrHistogram: min_value must be positive");
  }
  if (config_.sub_buckets_per_octave < 1) {
    throw std::invalid_argument(
        "HdrHistogram: sub_buckets_per_octave must be >= 1");
  }
}

std::size_t HdrHistogram::bucket_index(double value) const {
  if (!std::isfinite(value) || value <= config_.min_value) return 0;
  const int base = octave_of(config_.min_value);
  const int oct = octave_of(value) - base;
  const std::int32_t sub = config_.sub_buckets_per_octave;
  if (oct < 0) return 0;
  if (oct >= kOctaves) {
    return static_cast<std::size_t>(kOctaves) *
               static_cast<std::size_t>(sub) -
           1;
  }
  // Position of the mantissa within its octave [2^(e-1), 2^e): frexp's
  // mantissa m is in [0.5, 1), so (2m - 1) sweeps [0, 1) linearly.
  int e = 0;
  const double m = std::frexp(value, &e);
  auto slot = static_cast<std::int32_t>((2.0 * m - 1.0) * sub);
  if (slot >= sub) slot = sub - 1;  // guard the m -> 1 rounding edge
  return static_cast<std::size_t>(oct) * static_cast<std::size_t>(sub) +
         static_cast<std::size_t>(slot);
}

double HdrHistogram::bucket_midpoint(std::size_t index) const {
  if (index == 0) return config_.min_value;
  const std::int32_t sub = config_.sub_buckets_per_octave;
  const auto oct = static_cast<std::int32_t>(index / sub);
  const auto slot = static_cast<std::int32_t>(index % sub);
  // Bucket `index` covers [lo, lo + width) inside octave `oct` above the
  // min_value octave: the octave spans [2^(base+oct-1), 2^(base+oct)).
  const int base = octave_of(config_.min_value);
  const double octave_lo = std::ldexp(0.5, base + oct);
  const double width = octave_lo / sub;  // octave span = octave_lo
  return octave_lo + width * (static_cast<double>(slot) + 0.5);
}

void HdrHistogram::record(double value) {
  const std::size_t idx = bucket_index(value);
  if (buckets_.size() <= idx) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  ++count_;
  if (std::isfinite(value) && value > max_) max_ = value;
}

void HdrHistogram::merge(const HdrHistogram& other) {
  if (other.config_.min_value != config_.min_value ||
      other.config_.sub_buckets_per_octave != config_.sub_buckets_per_octave) {
    throw std::invalid_argument("HdrHistogram::merge: geometry mismatch");
  }
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  if (other.max_ > max_) max_ = other.max_;
}

double HdrHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 100.0) q = 100.0;
  // Rank of the target sample, 1-based; ceil so p100 is the last sample.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(count_)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Never report beyond the exactly-tracked max (the top bucket's
      // midpoint can overshoot it).
      const double mid = bucket_midpoint(i);
      return mid < max_ ? mid : max_;
    }
  }
  return max_;
}

double HdrHistogram::mean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      sum += bucket_midpoint(i) * static_cast<double>(buckets_[i]);
    }
  }
  return sum / static_cast<double>(count_);
}

}  // namespace ccml
