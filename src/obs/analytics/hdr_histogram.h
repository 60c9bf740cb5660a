// HDR-style log-bucketed histogram for streaming trace analytics.
//
// Values are binned into octaves (powers of two) split linearly into
// `sub_buckets_per_octave` slots, giving a bounded relative error
// (~1/sub_buckets) over a huge dynamic range with O(1) record cost and a
// few KB of integer counters.  Everything queryable is derived from the
// integer counts plus an exactly-tracked max, so two histograms recorded on
// different sweep shards merge associatively: merge(A, B) then merge(·, C)
// is bit-identical to a single pass over the concatenated samples.  (This
// is why mean() is computed from bucket midpoints rather than a running
// double sum — floating-point accumulation order would break that
// guarantee.)
#pragma once

#include <cstdint>
#include <vector>

namespace ccml {

struct HdrHistogramConfig {
  /// Values at or below this land in bucket 0; sets the bottom octave.
  double min_value = 1e-3;
  /// Linear slots per power-of-two octave; relative error ~= 1/sub_buckets.
  std::int32_t sub_buckets_per_octave = 32;
};

class HdrHistogram {
 public:
  /// Octaves covered above min_value; values beyond clamp into the last
  /// bucket.  50 octaves over the default 1e-3 reaches ~1e12.
  static constexpr std::int32_t kOctaves = 50;

  explicit HdrHistogram(HdrHistogramConfig config = {});

  /// Records one sample.  Non-finite and negative values clamp to bucket 0.
  void record(double value);

  /// Folds `other` into this histogram.  Throws std::invalid_argument when
  /// the two geometries (min_value / sub-buckets) differ.
  void merge(const HdrHistogram& other);

  std::uint64_t count() const { return count_; }
  /// Exact maximum of the recorded values (0 when empty).
  double max() const { return max_; }
  /// Value at quantile `q` in [0, 100]: the midpoint of the bucket where the
  /// cumulative count first reaches q% (0 when empty).
  double percentile(double q) const;
  /// Bucket-midpoint mean — approximate (relative error ~1/sub_buckets) but
  /// exactly mergeable.  0 when empty.
  double mean() const;

  const HdrHistogramConfig& config() const { return config_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::size_t bucket_index(double value) const;
  double bucket_midpoint(std::size_t index) const;

  HdrHistogramConfig config_;
  std::vector<std::uint64_t> buckets_;  // grown lazily up to the top bucket
  std::uint64_t count_ = 0;
  double max_ = 0.0;
};

}  // namespace ccml
