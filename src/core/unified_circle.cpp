#include "core/unified_circle.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/math.h"

namespace ccml {

namespace {

constexpr std::int64_t kNoBoundary = std::numeric_limits<std::int64_t>::max();

/// One job's rotated segment list, walked by the merge sweep.
struct Cursor {
  Cursor(const CircleSegment* begin, const CircleSegment* stop, double demand)
      : seg(begin),
        end(stop),
        demand_bps(demand),
        next(begin != stop ? begin->lo : kNoBoundary) {}
  Cursor(const std::vector<CircleSegment>& segs, double demand)
      : Cursor(segs.data(), segs.data() + segs.size(), demand) {}

  const CircleSegment* seg;
  const CircleSegment* end;
  double demand_bps;
  std::int64_t next;  ///< position of the cursor's next boundary
  bool open = false;
};

/// The circle sweep.  Merges the jobs' sorted segment lists and calls
/// visit(lo, hi, depth, demand) for every stretch [lo, hi) between
/// consecutive boundaries, from 0 to the last boundary: `depth` jobs
/// communicate there with aggregate `demand`.  Demands are added in cursor
/// order at each boundary; the sums are exact while demands are integral
/// bps and their total stays below 2^53.
template <class Visit>
void sweep_levels(std::span<Cursor> cursors, Visit&& visit) {
  int depth = 0;
  double demand = 0.0;
  std::int64_t prev = 0;
  for (;;) {
    std::int64_t pos = kNoBoundary;
    for (const Cursor& c : cursors) pos = std::min(pos, c.next);
    if (pos == kNoBoundary) return;
    if (pos > prev) visit(prev, pos, depth, demand);
    for (Cursor& c : cursors) {
      if (c.next != pos) continue;
      if (!c.open) {
        c.open = true;
        ++depth;
        demand += c.demand_bps;
        c.next = c.seg->hi;
      } else {
        c.open = false;
        --depth;
        demand -= c.demand_bps;
        ++c.seg;
        c.next = c.seg != c.end ? c.seg->lo : kNoBoundary;
      }
    }
    prev = pos;
  }
}

/// Rotates every job but `skip` into `segs`, back to back, and returns a
/// sweep cursor over each (the skipped job's cursor is empty).
std::vector<Cursor> rotated_cursors(const UnifiedCircle& circle,
                                    std::span<const Duration> rotations,
                                    std::size_t skip,
                                    std::vector<CircleSegment>& segs) {
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < circle.job_count(); ++k) {
    starts.push_back(segs.size());
    if (k != skip) circle.rotated_segments(k, rotations[k], segs);
  }
  starts.push_back(segs.size());
  std::vector<Cursor> cursors;
  cursors.reserve(circle.job_count());
  for (std::size_t k = 0; k < circle.job_count(); ++k) {
    cursors.emplace_back(segs.data() + starts[k], segs.data() + starts[k + 1],
                         circle.job(k).demand.bits_per_sec());
  }
  return cursors;
}

/// Appends [lo, hi) to a sorted segment list, merging it into the last
/// segment when the two abut.
void append_merged(std::vector<CircleSegment>& out, std::int64_t lo,
                   std::int64_t hi) {
  if (!out.empty() && out.back().hi == lo) {
    out.back().hi = hi;
  } else {
    out.push_back({lo, hi});
  }
}

/// Cyclic segments of a job at rotation zero: every repetition's arcs
/// wrapped onto [0, perimeter), sorted, merged, and the seam-crossing tail
/// folded into the last segment.
std::vector<CircleSegment> base_segments(const CommProfile& job,
                                         Duration period, std::int64_t reps,
                                         Duration perimeter) {
  const std::int64_t L = perimeter.ns();
  std::vector<CircleSegment> raw;
  raw.reserve(static_cast<std::size_t>(reps) * job.arcs.size());
  for (std::int64_t k = 0; k < reps; ++k) {
    for (const Arc& a : job.arcs) {
      if (!a.length.is_positive()) continue;
      if (a.length >= perimeter) return {{0, L}};
      const std::int64_t lo =
          wrap_to_circle(a.start + period * k, perimeter).ns();
      raw.push_back({lo, lo + a.length.ns()});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const CircleSegment& a, const CircleSegment& b) {
              return a.lo < b.lo;
            });
  std::vector<CircleSegment> out;
  for (const CircleSegment& s : raw) {
    if (!out.empty() && s.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, s.hi);
    } else {
      out.push_back(s);
    }
  }
  // The last segment may run past the perimeter onto the first ones.
  std::size_t folded = 0;
  while (out.size() - folded > 1 && out.back().hi - L >= out[folded].lo) {
    out.back().hi = std::max(out.back().hi, out[folded].hi + L);
    ++folded;
  }
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(folded));
  if (!out.empty() && out.back().hi - out.back().lo >= L) return {{0, L}};
  return out;
}

}  // namespace

UnifiedCircle::UnifiedCircle(std::span<const CommProfile> jobs,
                             UnifiedCircleOptions options)
    : jobs_(jobs.begin(), jobs.end()) {
  assert(!jobs_.empty());
  assert(options.quantum.is_positive());
  quantized_periods_.reserve(jobs_.size());
  std::vector<Duration> periods;
  for (const auto& j : jobs_) {
    assert(j.valid());
    Duration q = quantize(j.period, options.quantum);
    if (!q.is_positive()) q = options.quantum;
    quantized_periods_.push_back(q);
    periods.push_back(j.period);
  }
  perimeter_ = lcm_durations(periods, options.quantum, options.perimeter_cap);
  exact_ = true;
  for (const Duration q : quantized_periods_) {
    if (perimeter_.ns() % q.ns() != 0) {
      exact_ = false;
      break;
    }
  }
  base_.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    base_.push_back(base_segments(jobs_[j], quantized_periods_[j],
                                  repetitions(j), perimeter_));
  }
}

std::int64_t UnifiedCircle::repetitions(std::size_t j) const {
  const Duration p = quantized_periods_.at(j);
  return (perimeter_.ns() + p.ns() - 1) / p.ns();
}

CircularIntervalSet UnifiedCircle::job_arcs(std::size_t j,
                                            Duration rotation) const {
  const CommProfile& job = jobs_.at(j);
  const Duration p = quantized_periods_.at(j);
  CircularIntervalSet set(perimeter_);
  const std::int64_t reps = repetitions(j);
  for (std::int64_t k = 0; k < reps; ++k) {
    for (const Arc& a : job.arcs) {
      set.add(Arc{a.start + rotation + p * k, a.length});
    }
  }
  return set;
}

void UnifiedCircle::rotated_segments(std::size_t j, Duration rotation,
                                     std::vector<CircleSegment>& out) const {
  const std::vector<CircleSegment>& base = base_.at(j);
  const std::int64_t L = perimeter_.ns();
  if (base.empty()) return;
  if (base.front().hi - base.front().lo == L) {
    out.push_back({0, L});
    return;
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
  if (last_hi > L) out.push_back({0, last_hi - L});
  for (std::size_t i = wrap; i < n; ++i) {
    out.push_back({base[i].lo + s - L, std::min(base[i].hi + s - L, L)});
  }
  for (std::size_t i = 0; i < wrap; ++i) {
    out.push_back({base[i].lo + s, std::min(base[i].hi + s, L)});
  }
}

CircleSweep UnifiedCircle::sweep(std::span<const Duration> rotations,
                                 CircleLimit limit) const {
  assert(rotations.size() == jobs_.size());
  std::vector<CircleSegment> segs;
  std::vector<Cursor> cursors =
      rotated_cursors(*this, rotations, jobs_.size(), segs);
  CircleSweep out;
  sweep_levels(cursors, [&](std::int64_t lo, std::int64_t hi, int depth,
                            double demand) {
    const bool bad = limit.bandwidth ? demand > limit.max_demand_bps
                                     : depth > limit.max_count;
    if (bad) out.violated_ns += hi - lo;
    if (depth >= 2) out.overlap_ns += hi - lo;
    out.peak_count = std::max(out.peak_count, depth);
    out.peak_demand_bps = std::max(out.peak_demand_bps, demand);
  });
  return out;
}

double UnifiedCircle::overlap_fraction(
    std::span<const Duration> rotations) const {
  return static_cast<double>(sweep(rotations).overlap_ns) /
         static_cast<double>(perimeter_.ns());
}

int UnifiedCircle::max_concurrency(std::span<const Duration> rotations) const {
  return sweep(rotations).peak_count;
}

Rate UnifiedCircle::peak_demand(std::span<const Duration> rotations) const {
  return Rate::bps(sweep(rotations).peak_demand_bps);
}

SlideRoom UnifiedCircle::slide_room(std::span<const Duration> rotations,
                                    std::size_t j) const {
  assert(rotations.size() == jobs_.size());
  const SlideRoom none{perimeter_, perimeter_};
  std::vector<CircleSegment> mine;
  rotated_segments(j, rotations[j], mine);
  if (mine.empty()) return none;
  // Union of everyone else's arcs: the stretches with depth >= 1.
  std::vector<CircleSegment> segs;
  std::vector<Cursor> cursors = rotated_cursors(*this, rotations, j, segs);
  std::vector<CircleSegment> occupied;
  sweep_levels(cursors,
               [&](std::int64_t lo, std::int64_t hi, int depth, double) {
                 if (depth >= 1) append_merged(occupied, lo, hi);
               });
  if (occupied.empty()) return none;
  // The gap from a point to the next occupied start (or back to the last
  // occupied end) grows monotonically around the circle, so the nearest
  // boundary on each side and the one across the seam bound the minimum.
  const auto gap = [&](std::int64_t to, std::int64_t from) {
    return wrap_to_circle(Duration::nanos(to - from), perimeter_);
  };
  SlideRoom room = none;
  for (const CircleSegment& m : mine) {
    const auto next = std::lower_bound(
        occupied.begin(), occupied.end(), m.hi,
        [](const CircleSegment& o, std::int64_t v) { return o.lo < v; });
    room.forward = std::min(room.forward, gap(occupied.front().lo, m.hi));
    if (next != occupied.end()) {
      room.forward = std::min(room.forward, gap(next->lo, m.hi));
    }
    const auto after = std::upper_bound(
        occupied.begin(), occupied.end(), m.lo,
        [](std::int64_t v, const CircleSegment& o) { return v < o.hi; });
    room.backward = std::min(room.backward, gap(m.lo, occupied.back().hi));
    if (after != occupied.begin()) {
      room.backward = std::min(room.backward, gap(m.lo, std::prev(after)->hi));
    }
  }
  return room;
}

CircleScorer::CircleScorer(const UnifiedCircle& circle, CircleLimit limit)
    : circle_(circle),
      limit_(limit),
      rotated_(circle.job_count()),
      rotated_at_(circle.job_count()),
      profiles_(circle.job_count()) {}

const std::vector<CircleSegment>& CircleScorer::rotated(std::size_t j,
                                                        Duration rotation) {
  if (rotated_at_[j] != rotation) {
    rotated_[j].clear();
    circle_.rotated_segments(j, rotation, rotated_[j]);
    rotated_at_[j] = rotation;
  }
  return rotated_[j];
}

std::int64_t CircleScorer::violated_ns(std::span<const Duration> rotations) {
  ++evaluations_;
  return circle_.sweep(rotations, limit_).violated_ns;
}

void CircleScorer::rebuild(Profile& p, std::span<const Duration> rotations,
                           std::size_t moved) {
  std::vector<Cursor> cursors;
  cursors.reserve(rotations.size());
  for (std::size_t k = 0; k < rotations.size(); ++k) {
    if (k == moved) continue;
    const std::vector<CircleSegment>& segs = rotated(k, rotations[k]);
    cursors.emplace_back(segs, 0.0);
  }
  p.over_ns = 0;
  p.at_cap.clear();
  sweep_levels(cursors,
               [&](std::int64_t lo, std::int64_t hi, int depth, double) {
                 if (depth > limit_.max_count) {
                   p.over_ns += hi - lo;
                 } else if (depth == limit_.max_count) {
                   append_merged(p.at_cap, lo, hi);
                 }
               });
  p.rotations.assign(rotations.begin(), rotations.end());
  p.built = true;
}

std::int64_t CircleScorer::violated_ns(std::span<const Duration> rotations,
                                       std::size_t moved) {
  assert(rotations.size() == circle_.job_count());
  if (limit_.bandwidth) return violated_ns(rotations);
  ++evaluations_;
  Profile& p = profiles_[moved];
  bool stale = !p.built;
  for (std::size_t k = 0; k < rotations.size() && !stale; ++k) {
    stale = k != moved && p.rotations[k] != rotations[k];
  }
  if (stale) rebuild(p, rotations, moved);
  // Two-pointer intersection of the moved job's arcs with the at-cap set.
  const std::vector<CircleSegment>& mine = rotated(moved, rotations[moved]);
  std::int64_t violated = p.over_ns;
  auto a = mine.begin();
  auto b = p.at_cap.begin();
  while (a != mine.end() && b != p.at_cap.end()) {
    const std::int64_t lo = std::max(a->lo, b->lo);
    const std::int64_t hi = std::min(a->hi, b->hi);
    if (hi > lo) violated += hi - lo;
    if (a->hi < b->hi) {
      ++a;
    } else {
      ++b;
    }
  }
  return violated;
}

}  // namespace ccml
