#include "core/profile.h"

#include <cinttypes>
#include <cstdio>

namespace ccml {

CommProfile CommProfile::single_phase(std::string name, Duration period,
                                      Duration compute, Rate demand) {
  CommProfile p;
  p.name = std::move(name);
  p.period = period;
  p.demand = demand;
  if (period > compute) {
    p.arcs.push_back(Arc{compute, period - compute});
  }
  return p;
}

CircularIntervalSet CommProfile::to_intervals() const {
  CircularIntervalSet set(period);
  for (const Arc& a : arcs) set.add(a);
  return set;
}

Duration CommProfile::comm_time() const {
  Duration total = Duration::zero();
  for (const Arc& a : arcs) total += a.length;
  return total;
}

double CommProfile::comm_fraction() const {
  if (!period.is_positive()) return 0.0;
  return to_intervals().covered_fraction();
}

bool CommProfile::valid() const {
  if (!period.is_positive()) return false;
  for (const Arc& a : arcs) {
    if (!a.length.is_positive()) return false;
  }
  return comm_time() <= period;
}

void CommProfile::append_signature(std::string& out) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%" PRId64 "d%.0f", period.ns(),
                demand.bits_per_sec());
  out += buf;
  for (const Arc& arc : arcs) {
    std::snprintf(buf, sizeof(buf), "a%" PRId64 "+%" PRId64, arc.start.ns(),
                  arc.length.ns());
    out += buf;
  }
}

}  // namespace ccml
