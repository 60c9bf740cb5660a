// End-to-end cluster experiments: place jobs, build their ring-allreduce
// flows, run the fluid simulation under a chosen congestion-control policy,
// and report per-job iteration statistics — the harness behind the §4/§5
// benches and the cluster examples.
#pragma once

#include <string>
#include <vector>

#include "cluster/run_core.h"

namespace ccml {

/// Fault plans address jobs by request index; link failures reroute flows
/// (ECMP) or park them until restoration.  Watchdog defaults apply only to
/// fault runs.
struct ExperimentConfig : RunOptions {
  NetworkConfig net;
  Duration run_time = Duration::seconds(20);
  /// Assign each job a unique strict priority (paper §4, direction (ii)).
  bool unique_priorities = false;
  /// Gate communication phases with solver time-shifts (§4, direction (iii)).
  /// Jobs sharing any link are grouped transitively (§5 cluster-level
  /// compatibility); each group is solved on one unified circle, and again
  /// whenever a fault changes the topology or job set.
  bool flow_schedule = false;
};

struct JobOutcome {
  std::string name;
  std::size_t iterations = 0;
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double p99_ms = 0.0;
  double solo_ms = 0.0;    ///< analytic dedicated-network iteration time
  double slowdown = 0.0;   ///< mean / solo
  bool placed = false;
  bool spans_fabric = false;
};

struct ExperimentResult {
  std::vector<JobOutcome> outcomes;
  PlacementReport placement;
  /// Fault events that executed during the run, with links resolved.
  std::vector<FaultEvent> faults_applied;
  /// Mean slowdown across placed jobs (the scheduler-quality scalar).
  double mean_slowdown() const;
  /// Worst per-job slowdown.
  double max_slowdown() const;
};

ExperimentResult run_cluster_experiment(const Topology& topo,
                                        const std::vector<JobRequest>& requests,
                                        PlacementPolicy& placement,
                                        const ExperimentConfig& config);

}  // namespace ccml
