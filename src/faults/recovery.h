// Recovery metrics: did every job return to its pre-fault iteration cadence,
// how long did that take, and what did the disruption cost?
//
// compute_recovery() is pure post-processing over per-job iteration traces —
// it never touches the simulator — so the same definition serves scenarios,
// benches and tests.  Definitions:
//
//   baseline       median post-warmup iteration time among iterations that
//                  completed before the first fault (fallback: median of all
//                  iterations when the fault hits immediately).
//   converged      the trace ends in a stable tail: a suffix of iterations
//                  each within `tolerance` of baseline.
//   converged_after  index of the first iteration of that stable tail —
//                  every iteration from it onward is within tolerance.
//   reconverge_ms  start of the stable tail minus the end of the fault
//                  window (clamped at zero: a job already stable when the
//                  last fault clears recovered "instantly").
//   iterations_disrupted  iterations violating tolerance that ended after
//                  the first fault hit.
//   goodput_lost_mb  (expected iterations over the disruption span at
//                  baseline cadence - iterations actually made in it)
//                  x per-iteration communication volume.  The span runs
//                  from the first fault to the end of the fault window or
//                  of the last disrupted iteration, whichever is later.
//                  An iteration counts by the share of its duration that
//                  lies inside the span, so an iteration the span cuts
//                  counts in part, a trace at baseline cadence loses
//                  nothing wherever the span falls, and the loss of an
//                  outage the iterations absorb grows with its length.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "util/time.h"

namespace ccml {

/// One job's observable history, extracted from TrainingJob after a run.
struct JobTrace {
  std::string name;
  std::vector<TimePoint> starts;    ///< per-iteration start times
  std::vector<Duration> durations;  ///< completed-iteration wall times
  double comm_mb_per_iter = 0.0;    ///< wire volume per iteration, MB
  bool departed = false;            ///< left the cluster mid-run (kJobDepart)
  std::size_t warmup = 2;           ///< iterations excluded from the baseline
};

struct JobRecovery {
  std::string job;
  double baseline_ms = 0.0;
  bool converged = false;
  std::size_t converged_after = 0;
  double reconverge_ms = 0.0;
  std::size_t iterations_disrupted = 0;
  double goodput_lost_mb = 0.0;
  bool departed = false;
};

struct RecoveryReport {
  TimePoint window_start;  ///< first fault event
  TimePoint window_end;    ///< last fault event
  std::vector<JobRecovery> jobs;

  /// Every non-departed job re-reached its baseline cadence.
  bool all_converged() const;
  /// Slowest job's reconvergence time (ms); 0 for an empty report.
  double max_reconverge_ms() const;
  double total_goodput_lost_mb() const;

  /// Multi-line human-readable rendering.
  std::string summary() const;
};

/// `tolerance` is the relative slack on iteration time (0.08 = within 8% of
/// baseline counts as converged).
RecoveryReport compute_recovery(const FaultPlan& plan,
                                std::span<const JobTrace> traces,
                                double tolerance = 0.08);

}  // namespace ccml
