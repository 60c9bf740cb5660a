// Job profiling (paper §4: "the ML scheduler should first profile each ML
// training job in isolation to measure its iteration time, communication
// pattern, and bandwidth demand").
//
// Two profilers are provided:
//  * analytic_profile: closed-form from the JobProfile and a dedicated rate —
//    exact under the fluid model with an ideal policy;
//  * measure_profile: actually runs the job alone on a dedicated dumbbell
//    under a chosen policy (e.g. DCQCN) and reports what was observed, the
//    way a production profiler would.
#pragma once

#include "core/profile.h"
#include "cc/factory.h"
#include "workload/model_zoo.h"

namespace ccml {

/// Closed-form profile of a job running alone behind a NIC of `rate`.
CommProfile analytic_profile(const JobProfile& job, Rate dedicated_rate);

struct MeasuredProfile {
  CommProfile profile;       ///< mean-based periodic abstraction
  Duration mean_iteration;
  Duration p99_iteration;
  Rate mean_comm_rate;       ///< achieved goodput during comm phases
};

struct ProfilerOptions {
  int iterations = 30;
  int warmup = 5;
  Rate nic = Rate::gbps(50);
  double goodput_factor = 0.85;
  PolicyKind policy = PolicyKind::kDcqcn;
  std::uint64_t seed = 7;
};

/// Simulates the job solo and extracts its periodic on-off abstraction.
/// Throws std::invalid_argument unless `iterations` exceeds `warmup`, and
/// std::runtime_error when the run misses its deadline.
MeasuredProfile measure_profile(const JobProfile& job,
                                const ProfilerOptions& opts = {});

}  // namespace ccml
