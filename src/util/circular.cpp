#include "util/circular.h"

#include <algorithm>
#include <cassert>

namespace ccml {

Duration wrap_to_circle(Duration point, Duration perimeter) {
  assert(perimeter.is_positive());
  Duration r = point % perimeter;
  if (r.is_negative()) r += perimeter;
  return r;
}

CircularIntervalSet::CircularIntervalSet(Duration perimeter)
    : perimeter_(perimeter) {
  assert(perimeter.is_positive());
}

void CircularIntervalSet::insert_linear(Duration lo, Duration hi) {
  if (hi <= lo) return;
  // Find the insertion window: all segments overlapping or abutting [lo, hi).
  auto first = segments_.begin();
  while (first != segments_.end() && first->second < lo) ++first;
  auto last = first;
  while (last != segments_.end() && last->first <= hi) {
    lo = std::min(lo, last->first);
    hi = std::max(hi, last->second);
    ++last;
  }
  first = segments_.erase(first, last);
  segments_.insert(first, {lo, hi});
}

void CircularIntervalSet::add(Arc arc) {
  if (!arc.length.is_positive()) return;
  if (arc.length >= perimeter_) {
    segments_.assign(1, {Duration::zero(), perimeter_});
    return;
  }
  const Duration start = wrap_to_circle(arc.start, perimeter_);
  const Duration end = start + arc.length;
  if (end <= perimeter_) {
    insert_linear(start, end);
  } else {
    insert_linear(start, perimeter_);
    insert_linear(Duration::zero(), end - perimeter_);
  }
}

Duration CircularIntervalSet::covered_length() const {
  Duration total = Duration::zero();
  for (const auto& [lo, hi] : segments_) total += hi - lo;
  return total;
}

double CircularIntervalSet::covered_fraction() const {
  return covered_length() / perimeter_;
}

bool CircularIntervalSet::contains(Duration point) const {
  const Duration p = wrap_to_circle(point, perimeter_);
  for (const auto& [lo, hi] : segments_) {
    if (p >= lo && p < hi) return true;
    if (lo > p) break;
  }
  return false;
}

CircularIntervalSet CircularIntervalSet::rotated(Duration shift) const {
  CircularIntervalSet out(perimeter_);
  for (const auto& [lo, hi] : segments_) {
    out.add(Arc{lo + shift, hi - lo});
  }
  return out;
}

CircularIntervalSet CircularIntervalSet::complement() const {
  CircularIntervalSet out(perimeter_);
  Duration cursor = Duration::zero();
  for (const auto& [lo, hi] : segments_) {
    if (lo > cursor) out.add(Arc{cursor, lo - cursor});
    cursor = hi;
  }
  if (cursor < perimeter_) out.add(Arc{cursor, perimeter_ - cursor});
  return out;
}

Duration CircularIntervalSet::overlap_length(const CircularIntervalSet& a,
                                             const CircularIntervalSet& b) {
  assert(a.perimeter_ == b.perimeter_);
  Duration total = Duration::zero();
  auto ia = a.segments_.begin();
  auto ib = b.segments_.begin();
  while (ia != a.segments_.end() && ib != b.segments_.end()) {
    const Duration lo = std::max(ia->first, ib->first);
    const Duration hi = std::min(ia->second, ib->second);
    if (hi > lo) total += hi - lo;
    if (ia->second < ib->second) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return total;
}

bool CircularIntervalSet::intersects(const CircularIntervalSet& a,
                                     const CircularIntervalSet& b) {
  return overlap_length(a, b).is_positive();
}

CircularIntervalSet CircularIntervalSet::unite(const CircularIntervalSet& a,
                                               const CircularIntervalSet& b) {
  assert(a.perimeter_ == b.perimeter_);
  CircularIntervalSet out = a;
  for (const auto& [lo, hi] : b.segments_) {
    out.insert_linear(lo, hi);
  }
  return out;
}

std::string CircularIntervalSet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i != 0) out += ", ";
    // Appended piecewise: a `"[" + std::string` chain inlines an insert at
    // offset 0, on which GCC 12 reports a spurious -Wrestrict.
    out += '[';
    out += segments_[i].first.to_string();
    out += ", ";
    out += segments_[i].second.to_string();
    out += ')';
  }
  out += "} / ";
  out += perimeter_.to_string();
  return out;
}

}  // namespace ccml
