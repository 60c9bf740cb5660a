// The periodic communication profile of a training job — the input to the
// paper's geometric abstraction (§3).
//
// A job's network demand is periodic: within each iteration of length
// `period`, one or more arcs carry traffic at `demand` while the rest of the
// period is pure compute.  Rolling the time series around a circle of
// perimeter `period` stacks the communication phases of all iterations onto
// the same arcs (paper Fig. 3).
#pragma once

#include <string>
#include <vector>

#include "util/circular.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct CommProfile {
  std::string name;
  Duration period;          ///< training iteration time (circle perimeter)
  std::vector<Arc> arcs;    ///< communication arcs within [0, period)
  Rate demand;              ///< bandwidth demand while communicating

  /// Convenience: the canonical single-phase job — compute on
  /// [0, compute), communication on [compute, period).
  static CommProfile single_phase(std::string name, Duration period,
                                  Duration compute, Rate demand);

  /// Arc coverage as a circular interval set on this job's own circle.
  CircularIntervalSet to_intervals() const;

  /// Total communication time per iteration.
  Duration comm_time() const;

  /// Fraction of the period spent communicating, in [0, 1].
  double comm_fraction() const;

  /// True when period > 0, every arc has positive length, and total arc
  /// length fits within the period.
  bool valid() const;

  /// Appends the solver cache-key encoding of this profile (period, demand
  /// and arc geometry; not the name) to `out`.  Checkpoints store keys built
  /// from it, so its bytes must not change.
  void append_signature(std::string& out) const;
};

}  // namespace ccml
