// The unified circle (paper §3, Fig. 5): jobs with different iteration times
// are compared on one circle whose perimeter is the LCM of their (quantized)
// periods.  A job with period P appears L/P times around a circle of
// perimeter L, so its communication pattern is replicated accordingly.
//
// Scoring a rotation assignment is the solver's inner loop, so the circle
// keeps each job's coverage as a sorted segment list built once at rotation
// zero: a rotation is a cyclic shift of that list with at most one split at
// the seam, and one merge sweep over the shifted lists measures violation,
// overlap and peaks together (no interval-set rebuild, no sort).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/profile.h"
#include "util/circular.h"
#include "util/time.h"

namespace ccml {

struct UnifiedCircleOptions {
  /// Periods are snapped to this quantum before the LCM (real iteration
  /// times are never exact integers).
  Duration quantum = Duration::millis(1);
  /// Upper bound on the perimeter; if the true LCM exceeds it the circle is
  /// clamped and `exact` is false (jobs then only approximately repeat).
  Duration perimeter_cap = Duration::seconds(30);
};

/// A half-open stretch [lo, hi) of the unified circle, in ns.
struct CircleSegment {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  friend bool operator==(const CircleSegment&, const CircleSegment&) = default;
};

/// The constraint a sweep scores against: more than `max_count` jobs
/// communicating at once or, with `bandwidth`, aggregate demand above
/// `max_demand_bps`.
struct CircleLimit {
  int max_count = 1;
  bool bandwidth = false;
  double max_demand_bps = 0.0;
};

/// What one sweep over the rotated jobs measures (lengths in ns).
struct CircleSweep {
  std::int64_t violated_ns = 0;  ///< where the limit is exceeded
  std::int64_t overlap_ns = 0;   ///< where >= 2 jobs communicate
  int peak_count = 0;            ///< most jobs communicating at once
  double peak_demand_bps = 0.0;  ///< highest aggregate demand
};

/// How far one job can slide along the circle, holding the others fixed,
/// before one of its arcs touches another job's arc.
struct SlideRoom {
  Duration forward;   ///< counter-clockwise
  Duration backward;  ///< clockwise
};

class UnifiedCircle {
 public:
  UnifiedCircle(std::span<const CommProfile> jobs,
                UnifiedCircleOptions options = {});

  Duration perimeter() const { return perimeter_; }
  std::size_t job_count() const { return jobs_.size(); }
  const CommProfile& job(std::size_t j) const { return jobs_.at(j); }

  /// True when the perimeter is the exact LCM (no cap clamping), so every
  /// job completes an integer number of iterations per revolution.
  bool exact() const { return exact_; }

  /// Number of times job j's iteration repeats around the circle.
  std::int64_t repetitions(std::size_t j) const;

  /// Job j's communication coverage on the unified circle when its own
  /// circle is rotated counter-clockwise by `rotation`.  Builds an interval
  /// set arc by arc; scoring uses rotated_segments() instead.
  CircularIntervalSet job_arcs(std::size_t j, Duration rotation) const;

  /// Appends the segments of job_arcs(j, rotation) to `out`: sorted,
  /// disjoint, merged except at the seam.  A cyclic shift of the list built
  /// at construction.
  void rotated_segments(std::size_t j, Duration rotation,
                        std::vector<CircleSegment>& out) const;

  /// One sweep over every rotated job.
  CircleSweep sweep(std::span<const Duration> rotations,
                    CircleLimit limit = {}) const;

  /// Total length of circle where >= 2 of the rotated jobs communicate,
  /// normalized by the perimeter.
  double overlap_fraction(std::span<const Duration> rotations) const;

  /// Peak number of jobs communicating simultaneously anywhere on the circle
  /// under the given rotations.
  int max_concurrency(std::span<const Duration> rotations) const;

  /// Peak aggregate bandwidth demand anywhere on the circle.
  Rate peak_demand(std::span<const Duration> rotations) const;

  /// Job j's slide room against the union of the others' arcs; both
  /// directions are the perimeter when either side has no arcs.
  SlideRoom slide_room(std::span<const Duration> rotations,
                       std::size_t j) const;

 private:
  std::vector<CommProfile> jobs_;
  std::vector<Duration> quantized_periods_;
  Duration perimeter_;
  bool exact_ = true;
  /// Per job, its coverage at rotation zero as maximal cyclic segments:
  /// sorted by lo in [0, perimeter), and the last may run past the
  /// perimeter (it wraps).  Built eagerly so a const circle is shareable.
  std::vector<std::vector<CircleSegment>> base_;
};

/// Scores rotation assignments on one circle: the annealers' inner loop.
/// Keeps each job's rotated segments and the others' depth profiles between
/// calls, so one scorer per walk (not thread-safe); the circle stays const.
class CircleScorer {
 public:
  CircleScorer(const UnifiedCircle& circle, CircleLimit limit);

  /// Violated ns of the assignment, from one full sweep.
  std::int64_t violated_ns(std::span<const Duration> rotations);

  /// The same value as violated_ns(rotations), found by re-scoring only
  /// job `moved` against a depth profile of the others.  In count mode with
  /// cap c the moved job adds violation exactly where the others already
  /// hold c jobs, so
  ///   violated = |others' depth > c|
  ///            + |moved job's arcs ∩ others' depth == c|
  /// (integer ns, bit-identical to a full sweep).  The profile is rebuilt
  /// only when another job's rotation changed since it was built, i.e. after
  /// an accepted move.  Bandwidth mode runs the full sweep: its running
  /// demand is a double.
  std::int64_t violated_ns(std::span<const Duration> rotations,
                           std::size_t moved);

  /// Scorings so far (full or incremental).
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct Profile {
    bool built = false;
    std::vector<Duration> rotations;    ///< the assignment it was built from
    std::int64_t over_ns = 0;           ///< others' depth > cap
    std::vector<CircleSegment> at_cap;  ///< others' depth == cap
  };

  const std::vector<CircleSegment>& rotated(std::size_t j, Duration rotation);
  void rebuild(Profile& p, std::span<const Duration> rotations,
               std::size_t moved);

  const UnifiedCircle& circle_;
  CircleLimit limit_;
  std::uint64_t evaluations_ = 0;
  // Per job: its rotated segments and the rotation they were built at.
  std::vector<std::vector<CircleSegment>> rotated_;
  std::vector<std::optional<Duration>> rotated_at_;
  std::vector<Profile> profiles_;  ///< per moved job
};

}  // namespace ccml
