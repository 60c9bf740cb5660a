// The run plumbing shared by the dumbbell scenario (cluster/scenario.h) and
// the cluster orchestrator (orch/orchestrator.h).  Each harness keeps its own
// job set, gate derivation and event order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cc/factory.h"
#include "cluster/placement.h"
#include "core/schedule.h"
#include "faults/injector.h"
#include "telemetry/recorders.h"
#include "util/stats.h"

namespace ccml {

class CheckpointCoordinator;

/// Options every harness config carries.
struct RunOptions {
  PolicyKind policy = PolicyKind::kDcqcn;
  /// Settable values for every transport family (cc/factory.h);
  /// make_policy picks the member matching `policy`.
  TransportConfig transports;
  /// Scripted faults (src/faults); empty = fault-free run.
  FaultPlan faults;
  /// Wedge guards; zero fields get defaults scaled to the run length (see
  /// RunCore::arm_watchdog).
  WatchdogConfig watchdog;
  /// Optional observability bus (src/obs): the run publishes its full
  /// TraceEvent stream to the bus's sinks, registers job names, samples link
  /// throughput when a sink declares a cadence (quiescence-compatible sinks
  /// keep the idle fast-forward) and flushes trailing samples at run end.
  TraceBus* trace = nullptr;
};

class RunCore {
 public:
  using Gates = std::vector<std::optional<CommGate>>;
  /// Harness-specific snapshot sections: name and state capture.
  using Sections =
      std::vector<std::pair<std::string, std::function<std::string()>>>;

  /// A run of `length` from the origin.  Builds and attaches the network,
  /// binds the trace bus (its sampler lives as long as this object) and
  /// creates the injector for a non-empty plan.
  RunCore(const Topology& topo, const RunOptions& options,
          const NetworkConfig& net_config, Duration length);
  /// Callbacks handed to the simulator, injector and checkpoint hold `this`.
  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  Simulator sim;
  Network net;
  std::unique_ptr<FaultInjector> injector;  ///< null without a fault plan

  /// Effective goodput of a host NIC (the first host's first link) at the
  /// start of the run: the rate behind every dedicated-network time.
  Rate nic_goodput() const { return nic_goodput_; }

  /// Registers job `index`'s name on the trace bus; with `baseline`, also
  /// emits its dedicated-network iteration time (kSoloBaseline) for the
  /// slowdown-vs-dedicated analytics.
  void trace_job(std::size_t index, const std::string& name,
                 const JobProfile* baseline = nullptr);

  /// Arms the options' wedge guard.  Unless `default_max_events` is zero,
  /// its zero fields become `default_max_events` and 4 × the run length.  A
  /// trip reports the fault state and the active/parked flow counts.
  void arm_watchdog(std::uint64_t default_max_events);

  /// Publishes an event stamped now, about job index `job` if any, and
  /// ticks the trace counter `counter` (none when null); no-op without a
  /// trace bus.
  void emit(const char* counter, TraceEventKind kind,
            std::optional<std::size_t> job, double value, double value2 = 0.0,
            const char* detail = nullptr);
  /// Publishes a solver verdict (kSolve) under `counter`.
  void emit_solve(const char* counter, bool compatible, double violation,
                  const char* detail = nullptr) {
    emit(counter, TraceEventKind::kSolve, std::nullopt,
         compatible ? 1.0 : 0.0, violation, detail);
  }

  /// Static job sets: solves the group `members` (indices into `profiles`
  /// and `gates`) on one unified circle with the default solver, reports
  /// it under "solver.solves" and, when compatible, writes each member's
  /// gate epoch'd at now.  Lone jobs are left alone, and incompatible groups
  /// ungated: a gated phase stretched past its slot would wait a full
  /// period for the next one.
  void gate_group(const std::vector<std::size_t>& members,
                  std::span<const CommProfile> profiles, Gates& gates);

  /// Static job sets: binds `jobs` (by JobId; null = unplaced) to the
  /// injector, recording departures in `departed`; with `regate`, an outage
  /// drops every live job's gate and a restoration or job-set change applies
  /// fresh gates from `solve`.  Then arms the watchdog (defaults only for
  /// fault runs) and starts every job.  All three outlive the run.
  void start_static_jobs(const std::vector<std::unique_ptr<TrainingJob>>& jobs,
                         std::vector<bool>& departed, bool regate,
                         std::function<Gates()> solve);

  /// Arms the injector, installs `ck` when given, runs to the end and
  /// flushes trailing samples.  The snapshot sections are "sim", "net",
  /// "cc", then `own` in order, then "faults"; installing last makes record
  /// and replay schedule the first tick from identical event-queue states.
  void run(CheckpointCoordinator* ck = nullptr, Sections own = {},
           std::function<void()> on_cursor = {});

 private:
  TraceBus* trace_;
  WatchdogConfig watchdog_;
  Duration length_;
  Rate nic_goodput_;
  std::unique_ptr<TraceThroughputSampler> sampler_;
};

/// Job `k`'s communication gate in `fs`.
inline CommGate slot_gate(const FlowSchedule& fs, std::size_t k) {
  const CommSlot& s = fs.slots[k];
  return CommGate{fs.epoch, s.start_offset, s.period, s.phase_offsets,
                  s.window};
}

/// Ring-allreduce job `index` over `hosts`, full wire bytes on every worker
/// path.  A single worker gets no network phase (zero communication bytes on
/// a loop-back path), so it still reports iterations.
JobSpec ring_job_spec(const Topology& topo, const Router& router,
                      std::size_t index, const JobRequest& request,
                      const std::vector<NodeId>& hosts);

/// The cluster runs' warmup: a fifth of the iterations, at most 10.  The
/// dumbbell scenario skips ScenarioConfig::warmup_iterations instead.
inline std::size_t cluster_warmup(std::size_t iterations) {
  return std::min<std::size_t>(iterations / 5, 10);
}

}  // namespace ccml
