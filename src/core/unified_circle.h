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

#include <algorithm>
#include <cstdint>
#include <limits>
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

/// The constraint a sweep scores against: more than one job communicating
/// at once or, with `bandwidth`, aggregate demand above `max_demand_bps`.
struct CircleLimit {
  bool bandwidth = false;
  double max_demand_bps = 0.0;
};

/// What one sweep over the rotated jobs measures (lengths in ns).
struct CircleSweep {
  std::int64_t violated_ns = 0;  ///< where the limit is exceeded
  std::int64_t overlap_ns = 0;   ///< where >= 2 jobs communicate
  int peak_count = 0;            ///< most jobs communicating at once
  double peak_demand_bps = 0.0;  ///< highest aggregate demand
  /// Segments read: every job's base list to rotate it, then every rotated
  /// list to merge them (a work counter).
  std::uint64_t segments_read = 0;
};

/// One sorted segment list as a merge sweep walks it: the sweep adds
/// `demand_bps` to its running demand while the cursor is inside a segment.
struct SegmentCursor {
  SegmentCursor(const CircleSegment* begin, const CircleSegment* stop,
                double demand)
      : seg(begin),
        end(stop),
        demand_bps(demand),
        next(begin != stop ? begin->lo : kDone) {}
  SegmentCursor(const std::vector<CircleSegment>& segs, double demand)
      : SegmentCursor(segs.data(), segs.data() + segs.size(), demand) {}

  static constexpr std::int64_t kDone =
      std::numeric_limits<std::int64_t>::max();
  const CircleSegment* seg;
  const CircleSegment* end;
  double demand_bps;
  std::int64_t next;  ///< position of the cursor's next boundary, or kDone
  bool open = false;
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

  /// Length of job j's segment list at rotation zero.
  std::size_t segment_count(std::size_t j) const { return base_.at(j).size(); }

  /// Job j's communication coverage on the unified circle when its own
  /// circle is rotated counter-clockwise by `rotation`.  Builds an interval
  /// set arc by arc; scoring uses rotated_segments() instead.
  CircularIntervalSet job_arcs(std::size_t j, Duration rotation) const;

  /// Appends the segments of job_arcs(j, rotation) to `out`: sorted,
  /// disjoint, merged except at the seam.  A cyclic shift of the list built
  /// at construction.
  void rotated_segments(std::size_t j, Duration rotation,
                        std::vector<CircleSegment>& out) const;

  /// Calls visit(lo, hi) on each segment rotated_segments(j, rotation)
  /// would append, in the same order, without building the list.  Returns
  /// the number of segments read from the job's list.
  template <class Visit>
  std::size_t visit_rotated(std::size_t j, Duration rotation,
                            Visit&& visit) const;

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
/// Keeps the jobs' rotated segments and the others' depth profiles between
/// calls, so one scorer per walk (not thread-safe); the circle stays const.
class CircleScorer {
 public:
  CircleScorer(const UnifiedCircle& circle, CircleLimit limit);

  /// Violated ns of the assignment, from one full sweep.
  std::int64_t violated_ns(std::span<const Duration> rotations);

  /// The same value as violated_ns(rotations), found by re-scoring only
  /// job `moved` against a depth profile of the others.  In count mode the
  /// moved job adds violation exactly where the others already hold one job,
  /// so
  ///   violated = |others' depth > 1|
  ///            + |moved job's arcs ∩ others' depth == 1|
  /// (integer ns, bit-identical to a full sweep).  The moved job is walked
  /// in place.  With one other job, that job's rotated list is the profile.
  /// With more, the profile is rebuilt only when another job's rotation
  /// changed since it was built, i.e. after an accepted move.  Bandwidth
  /// mode runs the full sweep: its running demand is a double.
  std::int64_t violated_ns(std::span<const Duration> rotations,
                           std::size_t moved);

  /// Scorings so far (full or incremental).
  std::uint64_t evaluations() const { return evaluations_; }

  /// Segments read so far, counted per call from list sizes: a job's list
  /// each time it is rotated (into a cached copy, or walked in place when it
  /// is the moved job), every list a sweep or profile merge reads, and the
  /// depth-1 list each re-score intersects.  A deterministic work counter.
  std::uint64_t segments_walked() const { return segments_walked_; }

 private:
  struct Profile {
    bool built = false;
    std::vector<Duration> rotations;    ///< the assignment it was built from
    std::int64_t over_ns = 0;           ///< others' depth > 1
    std::vector<CircleSegment> at_cap;  ///< others' depth == 1
  };

  const std::vector<CircleSegment>& rotated(std::size_t j, Duration rotation);
  void rebuild(Profile& p, std::span<const Duration> rotations,
               std::size_t moved);
  /// over_ns + |moved job at `rotation` ∩ at_cap|, walking the moved job's
  /// list in place.
  std::int64_t rescore(std::size_t moved, Duration rotation,
                       std::int64_t over_ns,
                       const std::vector<CircleSegment>& at_cap);

  const UnifiedCircle& circle_;
  CircleLimit limit_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t segments_walked_ = 0;
  // Per job: its rotated segments and the rotation they were built at.
  // Only other jobs' lists are cached; the moved job is walked in place.
  std::vector<std::vector<CircleSegment>> rotated_;
  std::vector<std::optional<Duration>> rotated_at_;
  std::vector<Profile> profiles_;  ///< per moved job, with >= 2 others
  std::vector<SegmentCursor> cursors_;  ///< reused by >= 3-other rebuilds
};

template <class Visit>
std::size_t UnifiedCircle::visit_rotated(std::size_t j, Duration rotation,
                                         Visit&& visit) const {
  const std::vector<CircleSegment>& base = base_.at(j);
  const std::int64_t L = perimeter_.ns();
  if (base.empty()) return 0;
  if (base.front().hi - base.front().lo == L) {
    visit(std::int64_t{0}, L);
    return 1;
  }
  const std::int64_t s = wrap_to_circle(rotation, perimeter_).ns();
  // Segments from `wrap` on start past the seam once shifted; they come
  // first, then the rest.  Only the last one in that order can straddle the
  // seam: its tail becomes the leading [0, x) piece.
  const auto wrap = static_cast<std::size_t>(
      std::lower_bound(base.begin(), base.end(), L - s,
                       [](const CircleSegment& a, std::int64_t v) {
                         return a.lo < v;
                       }) -
      base.begin());
  const std::size_t n = base.size();
  const std::size_t last = wrap == 0 ? n - 1 : wrap - 1;
  const std::int64_t last_hi = base[last].hi + s - (last >= wrap ? L : 0);
  if (last_hi > L) visit(std::int64_t{0}, last_hi - L);
  for (std::size_t i = wrap; i < n; ++i) {
    visit(base[i].lo + s - L, std::min(base[i].hi + s - L, L));
  }
  for (std::size_t i = 0; i < wrap; ++i) {
    visit(base[i].lo + s, std::min(base[i].hi + s, L));
  }
  return n;
}

}  // namespace ccml
