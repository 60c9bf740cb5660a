#include "core/unified_circle.h"

#include <algorithm>
#include <cassert>

#include "util/math.h"

namespace ccml {

namespace {

/// The circle sweep.  Merges the jobs' sorted segment lists and calls
/// visit(lo, hi, depth, demand) for every stretch [lo, hi) between
/// consecutive boundaries, from 0 to the last boundary: `depth` jobs
/// communicate there with aggregate `demand`.  Demands are added in cursor
/// order at each boundary; the sums are exact while demands are integral
/// bps and their total stays below 2^53.  Without kDemand only the depth is
/// tracked and `demand` is always 0.
template <bool kDemand, class Visit>
void sweep_levels(std::span<SegmentCursor> cursors, Visit&& visit) {
  int depth = 0;
  double demand = 0.0;
  std::int64_t prev = 0;
  for (;;) {
    std::int64_t pos = SegmentCursor::kDone;
    for (const SegmentCursor& c : cursors) pos = std::min(pos, c.next);
    if (pos == SegmentCursor::kDone) return;
    if (pos > prev) visit(prev, pos, depth, demand);
    for (SegmentCursor& c : cursors) {
      if (c.next != pos) continue;
      if (!c.open) {
        c.open = true;
        ++depth;
        if constexpr (kDemand) demand += c.demand_bps;
        c.next = c.seg->hi;
      } else {
        c.open = false;
        --depth;
        if constexpr (kDemand) demand -= c.demand_bps;
        ++c.seg;
        c.next = c.seg != c.end ? c.seg->lo : SegmentCursor::kDone;
      }
    }
    prev = pos;
  }
}

/// Rotates every job but `skip` into `segs`, back to back, and returns a
/// sweep cursor over each (the skipped job's cursor is empty).
std::vector<SegmentCursor> rotated_cursors(const UnifiedCircle& circle,
                                           std::span<const Duration> rotations,
                                           std::size_t skip,
                                           std::vector<CircleSegment>& segs) {
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < circle.job_count(); ++k) {
    starts.push_back(segs.size());
    if (k != skip) circle.rotated_segments(k, rotations[k], segs);
  }
  starts.push_back(segs.size());
  std::vector<SegmentCursor> cursors;
  cursors.reserve(circle.job_count());
  for (std::size_t k = 0; k < circle.job_count(); ++k) {
    cursors.emplace_back(segs.data() + starts[k], segs.data() + starts[k + 1],
                         circle.job(k).demand.bits_per_sec());
  }
  return cursors;
}

/// Appends [lo, hi) to a sorted segment list, merging it into the last
/// segment when the two abut.  Inlined: profile merges call it per stretch.
[[gnu::always_inline]] inline void append_merged(
    std::vector<CircleSegment>& out, std::int64_t lo, std::int64_t hi) {
  if (!out.empty() && out.back().hi == lo) {
    out.back().hi = hi;
  } else {
    out.push_back({lo, hi});
  }
}

/// The depth profile of two sorted, disjoint segment lists: appends the
/// stretches where exactly one of them holds a segment to `at_cap` (merged
/// into maximal stretches) and returns the length where both do.
std::int64_t merge_pair(const std::vector<CircleSegment>& a,
                        const std::vector<CircleSegment>& b,
                        std::vector<CircleSegment>& at_cap) {
  std::int64_t both = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  // Start of the part of *ia / *ib not yet merged.
  std::int64_t la = ia != a.end() ? ia->lo : 0;
  std::int64_t lb = ib != b.end() ? ib->lo : 0;
  while (ia != a.end() && ib != b.end()) {
    if (la < lb) {
      const std::int64_t hi = std::min(ia->hi, lb);
      append_merged(at_cap, la, hi);
      la = hi;
    } else if (lb < la) {
      const std::int64_t hi = std::min(ib->hi, la);
      append_merged(at_cap, lb, hi);
      lb = hi;
    } else {
      const std::int64_t hi = std::min(ia->hi, ib->hi);
      both += hi - la;
      la = lb = hi;
    }
    if (la == ia->hi && ++ia != a.end()) la = ia->lo;
    if (lb == ib->hi && ++ib != b.end()) lb = ib->lo;
  }
  // At most one list has segments left, the first of them from `lo` on.
  const auto drain = [&at_cap](auto it, auto stop, std::int64_t lo) {
    if (it == stop) return;
    append_merged(at_cap, lo, it->hi);
    while (++it != stop) append_merged(at_cap, it->lo, it->hi);
  };
  drain(ia, a.end(), la);
  drain(ib, b.end(), lb);
  return both;
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
  visit_rotated(j, rotation, [&out](std::int64_t lo, std::int64_t hi) {
    out.push_back({lo, hi});
  });
}

CircleSweep UnifiedCircle::sweep(std::span<const Duration> rotations,
                                 CircleLimit limit) const {
  assert(rotations.size() == jobs_.size());
  std::vector<CircleSegment> segs;
  std::vector<SegmentCursor> cursors =
      rotated_cursors(*this, rotations, jobs_.size(), segs);
  CircleSweep out;
  for (const std::vector<CircleSegment>& base : base_) {
    out.segments_read += base.size();
  }
  out.segments_read += segs.size();
  sweep_levels<true>(cursors, [&](std::int64_t lo, std::int64_t hi,
                                  int depth, double demand) {
    const bool bad = limit.bandwidth ? demand > limit.max_demand_bps
                                     : depth > 1;
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
  std::vector<SegmentCursor> cursors =
      rotated_cursors(*this, rotations, j, segs);
  std::vector<CircleSegment> occupied;
  sweep_levels<false>(
      cursors, [&](std::int64_t lo, std::int64_t hi, int depth, double) {
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
    segments_walked_ += circle_.segment_count(j);
  }
  return rotated_[j];
}

std::int64_t CircleScorer::violated_ns(std::span<const Duration> rotations) {
  ++evaluations_;
  const CircleSweep s = circle_.sweep(rotations, limit_);
  segments_walked_ += s.segments_read;
  return s.violated_ns;
}

void CircleScorer::rebuild(Profile& p, std::span<const Duration> rotations,
                           std::size_t moved) {
  p.at_cap.clear();
  if (rotations.size() == 3) {
    // Two others: one plain two-list merge.
    const std::size_t a = moved == 0 ? 1 : 0;
    const std::size_t b = moved == 2 ? 1 : 2;
    const std::vector<CircleSegment>& sa = rotated(a, rotations[a]);
    const std::vector<CircleSegment>& sb = rotated(b, rotations[b]);
    segments_walked_ += sa.size() + sb.size();
    p.over_ns = merge_pair(sa, sb, p.at_cap);
  } else {
    cursors_.clear();
    for (std::size_t k = 0; k < rotations.size(); ++k) {
      if (k == moved) continue;
      const std::vector<CircleSegment>& segs = rotated(k, rotations[k]);
      segments_walked_ += segs.size();
      cursors_.emplace_back(segs, 0.0);
    }
    p.over_ns = 0;
    sweep_levels<false>(
        cursors_, [&](std::int64_t lo, std::int64_t hi, int depth, double) {
          if (depth > 1) {
            p.over_ns += hi - lo;
          } else if (depth == 1) {
            append_merged(p.at_cap, lo, hi);
          }
        });
  }
  p.rotations.assign(rotations.begin(), rotations.end());
  p.built = true;
}

std::int64_t CircleScorer::rescore(std::size_t moved, Duration rotation,
                                   std::int64_t over_ns,
                                   const std::vector<CircleSegment>& at_cap) {
  // Two-pointer intersection of the moved job's segments, as the visitor
  // yields them, with the at-cap set.  A cap segment reaching past the
  // current one stays for the next.
  std::int64_t violated = over_ns;
  const CircleSegment* b = at_cap.data();
  const CircleSegment* const end = b + at_cap.size();
  const std::size_t read = circle_.visit_rotated(
      moved, rotation, [&](std::int64_t lo, std::int64_t hi) {
        for (; b != end && b->lo < hi; ++b) {
          const std::int64_t x = std::max(lo, b->lo);
          const std::int64_t y = std::min(hi, b->hi);
          if (y > x) violated += y - x;
          if (b->hi > hi) break;
        }
      });
  segments_walked_ += read + at_cap.size();
  return violated;
}

std::int64_t CircleScorer::violated_ns(std::span<const Duration> rotations,
                                       std::size_t moved) {
  assert(rotations.size() == circle_.job_count());
  if (limit_.bandwidth) return violated_ns(rotations);
  ++evaluations_;
  if (rotations.size() == 1) return 0;
  if (rotations.size() == 2) {
    // A lone other job's list is the depth-1 set, and nothing is deeper.
    // Fetched through rotated() on every call: the cached list follows the
    // other job's current rotation, never a proposal of it.
    const std::size_t other = 1 - moved;
    return rescore(moved, rotations[moved], 0,
                   rotated(other, rotations[other]));
  }
  Profile& p = profiles_[moved];
  bool stale = !p.built;
  for (std::size_t k = 0; k < rotations.size() && !stale; ++k) {
    stale = k != moved && p.rotations[k] != rotations[k];
  }
  if (stale) rebuild(p, rotations, moved);
  return rescore(moved, rotations[moved], p.over_ns, p.at_cap);
}

}  // namespace ccml
