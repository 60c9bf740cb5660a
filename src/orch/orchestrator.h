// The online cluster orchestrator: a long-horizon control loop above
// placement and the compatibility solver.
//
// Jobs arrive (orch/arrivals.h), are admitted / queued / rejected
// (orch/admission.h), train for their service time, and depart — while
// scripted link faults (src/faults) hit the fabric on the same timeline.  A
// static job set is the schedule where every job arrives at t=0 and trains
// past the horizon (bench/s5_cluster_placement).  On every churn or
// topology event the live jobs' communication gates are re-derived through
// the IncrementalResolver (orch/resolve.h), so unchanged sharing groups cost
// a cache lookup and shrunken ones usually just a warm-start certificate.
//
// Determinism contract: a run is a pure function of (topology, arrival
// schedule, config).  ClusterRunReport::summary() and any attached trace
// sinks produce byte-identical output across runs and SweepRunner thread
// counts; wall-clock is deliberately excluded (ResolveStats::wall_micros is
// available programmatically).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/run_core.h"
#include "orch/admission.h"
#include "orch/arrivals.h"
#include "orch/resolve.h"

namespace ccml {

/// Live handles handed to OrchestratorConfig::on_cursor when a resumed or
/// branched run reaches its snapshot cursor: enough to swap the transport,
/// change the admission policy (and re-drain the queue under the new rules),
/// or script extra faults into the continuation.
struct OrchestratorCursorContext {
  Simulator& sim;
  Network& net;
  AdmissionController& admission;
  /// Re-runs the admission loop over the current queue; call after
  /// `admission.set_policy(...)` so the new policy takes effect immediately
  /// rather than at the next churn event.
  std::function<void()> drain_queue;
};

/// Faults are link events only (churn is the arrival schedule's business;
/// the constructor throws on job events).  The watchdog is always armed; the
/// trace also carries arrivals, admissions, rejections and departures.
struct OrchestratorConfig : RunOptions {
  AdmissionConfig admission;

  /// Derive communication gates for compatible sharing groups (paper §4,
  /// direction (iii)); incompatible groups run ungated.
  bool flow_schedule = true;

  /// Gate-derivation granularity for link-sharing components.
  enum class CircleMode {
    /// Legacy single-bottleneck model, end to end: admission scores a
    /// sharing component on ONE unified circle, and gates are derived from
    /// that same joint circle — over-constraining chain components that
    /// are satisfiable per link (the joint circle invents constraints
    /// between jobs that share no link), so chains get deferred at
    /// admission or run ungated.  Kept for A/B comparison
    /// (bench/s6_multi_bottleneck).
    kSingleCircle,
    /// Multi-bottleneck (CASSINI §4): each contended link gets its own
    /// circle; a job gets ONE rotation consistent across every link it
    /// crosses (core/interference_graph.h).
    kGraph,
  };
  CircleMode circle = CircleMode::kGraph;

  /// Per-iteration Gaussian noise on every job's compute phase (forwarded
  /// to JobSpec::compute_jitter with a per-job seed).  Real step times vary
  /// with data loading and stragglers; jitter is also what makes ungated
  /// sharing expensive — drifting phases re-collide instead of settling
  /// into a stable interleaving — so cluster benches enable it to compare
  /// gating policies under realistic conditions.  Zero disables it.
  Duration compute_jitter = Duration::zero();

  /// The run ends at this horizon; jobs still queued or training are
  /// reported in their end-of-run state.
  Duration horizon = Duration::seconds(60);

  /// Optional checkpoint/restore coordinator (src/ckpt), installed by
  /// RunCore::run with "orch" and "igraph" sections.  Must outlive run();
  /// one coordinator per run.
  CheckpointCoordinator* checkpoint = nullptr;
  /// Replay modes: fired at the snapshot cursor after verification — the
  /// what-if variation hook.
  std::function<void(OrchestratorCursorContext&)> on_cursor;
};

struct ClusterJobOutcome {
  std::string name;
  int workers = 0;

  /// End-of-run state.
  enum class State { kRejected, kQueued, kRunning, kFinished };
  State state = State::kQueued;

  /// Admission instant minus arrival instant; zero unless admitted.
  Duration queue_delay = Duration::zero();
  bool spans_fabric = false;

  std::size_t iterations = 0;
  double mean_ms = 0.0;     ///< mean iteration time after warmup
  double solo_ms = 0.0;     ///< analytic dedicated-network iteration time
  double slowdown = 0.0;    ///< mean / solo (0 until an iteration completes)
};

const char* to_string(ClusterJobOutcome::State state);

struct ClusterRunReport {
  std::vector<ClusterJobOutcome> jobs;  ///< one per arrival, arrival order

  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t finished = 0;
  std::size_t queued_at_end = 0;
  std::size_t running_at_end = 0;

  ResolveStats resolve;
  std::size_t faults_applied = 0;

  double admission_rate() const;
  /// Mean queueing delay over admitted jobs, ms.
  double mean_queue_delay_ms() const;
  /// Mean per-job slowdown over jobs with measured iterations.
  double mean_slowdown() const;
  double max_slowdown() const;

  /// Deterministic human-readable report: byte-identical for identical
  /// (topology, schedule, config) inputs.
  std::string summary() const;
};

class Orchestrator {
 public:
  /// Throws std::invalid_argument when the config is malformed (job events
  /// in the fault plan, non-positive horizon).  `topo` must outlive run().
  Orchestrator(const Topology& topo, ArrivalSchedule schedule,
               OrchestratorConfig config);

  /// Runs the full horizon.  Call once.
  ClusterRunReport run();

 private:
  const Topology& topo_;
  ArrivalSchedule schedule_;
  OrchestratorConfig config_;
};

}  // namespace ccml
