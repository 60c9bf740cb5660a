// A ready-made dumbbell "testbed": the paper's §2 setup — N training jobs,
// one job per sender/receiver host pair, all crossing one 50 Gbps bottleneck
// link.  Used by the benches, the examples and the integration tests.
//
// Scenarios optionally carry a FaultPlan (src/faults): scripted link flaps,
// brownouts, stragglers and job churn are injected mid-run, flows reroute or
// park-and-requeue, communication gates are re-solved when the topology or
// job set changes, and the result reports recovery metrics (time to
// reconverge, iterations disrupted, goodput lost).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/run_core.h"
#include "faults/recovery.h"

namespace ccml {

struct ScenarioJob {
  std::string name;
  JobProfile profile;
  /// Per-flow aggressiveness overrides (unfairness knobs); zero = policy
  /// default.  cc_timer: DCQCN timer T / BBR decision interval; cc_rai:
  /// additive step of DCQCN, TIMELY and Swift (see net/flow.h).
  Duration cc_timer = Duration::zero();
  Rate cc_rai = Rate::zero();
  int priority = 0;
  double weight = 1.0;                   ///< WFQ weight
  Duration compute_jitter = Duration::zero();  ///< per-iteration compute noise
  std::optional<CommGate> gate;
  Duration start_offset = Duration::zero();
};

/// Fault plans call the §2 bottleneck cable "swL->swR"; gated jobs are
/// re-solved after faults.  Watchdog defaults apply only to fault runs.
struct ScenarioConfig : RunOptions {
  Duration duration = Duration::seconds(20);
  std::size_t warmup_iterations = 5;
  Rate nic = Rate::gbps(50);
  Rate bottleneck = Rate::gbps(50);
  double goodput_factor = 0.85;

  /// Solve a compatibility-based flow schedule at run start and gate every
  /// job with it (the CASSINI-style interleaved mode), instead of requiring
  /// callers to pre-compute per-job gates.  Emits a kSolve event when a
  /// trace bus is bound, so measured interleaving can be compared against
  /// the solver's prediction.
  bool flow_schedule = false;

  /// Optional checkpoint/restore coordinator (src/ckpt), installed by
  /// RunCore::run with a "jobs" section; its mode decides whether snapshots
  /// are written (record), verified against a loaded one (resume), or
  /// captured only (branch).  Must outlive the run; one per run.
  CheckpointCoordinator* checkpoint = nullptr;
  /// Replay modes: fired at the snapshot cursor, after state verification
  /// succeeded — the what-if variation hook (swap the transport, script
  /// extra faults, ...).
  std::function<void(Simulator&, Network&)> on_cursor;
};

/// Throws std::invalid_argument with a descriptive message when the job list
/// or config is malformed (no jobs, unnamed job, non-positive duration or
/// rates, goodput factor outside (0,1], negative start offset, ...).
void validate_scenario(const std::vector<ScenarioJob>& jobs,
                       const ScenarioConfig& config);

struct ScenarioJobStats {
  std::string name;
  std::size_t iterations = 0;
  double mean_ms = 0;
  double median_ms = 0;
  double p95_ms = 0;
  Cdf cdf;  ///< post-warmup iteration times in milliseconds
  std::vector<double> iteration_ms;  ///< every iteration, including warmup

  /// Index of the first iteration from which all remaining iterations stay
  /// within `tolerance` of `target_ms` (convergence to interleaved
  /// operation); returns iteration count if never reached.
  std::size_t converged_after(double target_ms, double tolerance = 0.05) const;
};

/// Job `j`'s post-warmup statistic `ms` (its mean, median or p95) with
/// `decimals` decimals, or "n/a" when every iteration of the job fell inside
/// the warmup and the sample is empty.
std::string post_warmup_ms(const ScenarioJobStats& j, double ms,
                           int decimals = 1);

struct ScenarioResult {
  std::vector<ScenarioJobStats> jobs;
  /// Recovery metrics; present when the config carried a fault plan.
  std::optional<RecoveryReport> recovery;
  /// The fault events that actually executed, with links resolved.
  std::vector<FaultEvent> faults_applied;
  /// Link integrations of the transport's queue pass (QueuePassWork; 0 for
  /// a policy without one): a deterministic work counter, kept out of
  /// every fingerprint and digest of the result.
  std::uint64_t queue_link_passes = 0;
};

/// Canonical aggressiveness presets for the "unfair DCQCN" scenarios; the
/// paper tuned T (125 us -> 100 us), we spread both T and R_AI to get the
/// same ~2:1 split at fluid granularity.
struct Aggressiveness {
  Duration timer;
  Rate rai;
};
Aggressiveness aggressive_knobs();
Aggressiveness meek_knobs();
/// A graded ladder: rank 0 is the most aggressive; higher ranks get slower
/// timers, used for >2-job groups ordered like Table 1 rows.
Aggressiveness ranked_knobs(int rank);

/// Runs the jobs on a shared dumbbell bottleneck and reports per-job
/// iteration statistics.  Throws std::invalid_argument on malformed input
/// (see validate_scenario) and SimulatorWedged when the watchdog trips.
ScenarioResult run_dumbbell_scenario(const std::vector<ScenarioJob>& jobs,
                                     const ScenarioConfig& config = {});

/// Effective per-NIC goodput of the scenario's links.
Rate scenario_goodput(const ScenarioConfig& config = {});

}  // namespace ccml
