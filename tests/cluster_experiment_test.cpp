// Static cluster experiments: a fixed job set placed at t=0 on a leaf-spine
// fabric, run through the online orchestrator (src/orch) with no churn.  Each
// job arrives at the origin and trains past the horizon, so the report is the
// steady-state slowdown of one placement under maxmin, optionally gated by the
// compatibility solver's flow schedule and perturbed by a fabric fault.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace_bus.h"
#include "orch/orchestrator.h"
#include "workload/profiler.h"

namespace ccml {
namespace {

/// A job of `workers` hosts with a 100 ms iteration, 30 ms of it on the wire.
JobRequest static_request(const char* name, int workers) {
  constexpr double kPeriodMs = 100;
  constexpr double kCommMs = 30;
  JobRequest r;
  r.name = name;
  r.workers = workers;
  r.profile = ModelZoo::synthetic(
      name, Duration::from_millis_f(kPeriodMs - kCommMs),
      Rate::gbps(42.5) * Duration::from_millis_f(kCommMs));
  r.comm_profile = CommProfile::single_phase(
      name, Duration::from_millis_f(kPeriodMs),
      Duration::from_millis_f(kPeriodMs - kCommMs), Rate::gbps(42.5));
  return r;
}

/// Every job arrives at t=0 and trains past the horizon: a static job set.
ArrivalSchedule at_start(const std::vector<JobRequest>& requests,
                         Duration horizon) {
  ArrivalSchedule schedule;
  for (const JobRequest& r : requests) {
    schedule.jobs.push_back({TimePoint::origin(), horizon * 2, r});
  }
  return schedule;
}

OrchestratorConfig static_config(AdmissionPolicyKind policy,
                                 bool flow_schedule) {
  OrchestratorConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.admission.policy = policy;
  cfg.flow_schedule = flow_schedule;
  cfg.horizon = Duration::seconds(3);
  return cfg;
}

/// Two 5-worker jobs in 3 racks of 4: both must span, and locality placement
/// puts both rings on rack 1's uplinks.
ClusterRunReport run_contended_pair(const OrchestratorConfig& cfg) {
  const Topology topo =
      Topology::leaf_spine(3, 4, 1, Rate::gbps(50), Rate::gbps(50));
  return Orchestrator(topo,
                      at_start({static_request("a", 5),
                                static_request("b", 5)},
                               cfg.horizon),
                      cfg)
      .run();
}

TEST(StaticJobSet, RackLocalJobsRunAtSoloSpeed) {
  const Topology topo =
      Topology::leaf_spine(2, 4, 2, Rate::gbps(50), Rate::gbps(100));
  const OrchestratorConfig cfg =
      static_config(AdmissionPolicyKind::kLocalityOnly, false);
  const ClusterRunReport r =
      Orchestrator(topo,
                   at_start({static_request("a", 4), static_request("b", 4)},
                            cfg.horizon),
                   cfg)
          .run();
  ASSERT_EQ(r.jobs.size(), 2u);
  for (const auto& j : r.jobs) {
    EXPECT_EQ(j.state, ClusterJobOutcome::State::kRunning) << j.name;
    EXPECT_FALSE(j.spans_fabric) << j.name;
    EXPECT_GT(j.iterations, 10u) << j.name;
    // Rack-local ring through a non-blocking ToR: no contention, so the
    // iteration time matches the solo baseline closely.
    EXPECT_NEAR(j.slowdown, 1.0, 0.05) << j.name;
  }
}

TEST(StaticJobSet, SharedFabricSlowsJobsDown) {
  const ClusterRunReport r = run_contended_pair(
      static_config(AdmissionPolicyKind::kLocalityOnly, false));
  ASSERT_EQ(r.admitted, 2u);
  for (const auto& j : r.jobs) EXPECT_TRUE(j.spans_fabric) << j.name;
  EXPECT_GT(r.max_slowdown(), 1.1);
}

TEST(StaticJobSet, FlowScheduleReachesSoloSpeed) {
  // The contended pair again, gated by solver rotations (§4(iii)).
  const ClusterRunReport r = run_contended_pair(
      static_config(AdmissionPolicyKind::kLocalityOnly, true));
  ASSERT_EQ(r.admitted, 2u);
  for (const auto& j : r.jobs) {
    EXPECT_GT(j.iterations, 10u) << j.name;
    EXPECT_LT(j.slowdown, 1.02) << j.name;
  }
}

TEST(StaticJobSet, BrownoutReSolvesGatesAfterRestoration) {
  // The gated contended pair with a brownout on a fabric link both rings
  // cross.  Gate verdicts are counted as each fault event is published,
  // before the injector's gate hook runs.
  struct SolveProbe : TraceSink {
    int verdicts = 0;
    int at_apply = -1;
    int at_restore = -1;
    void on_event(const TraceEvent& ev) override {
      if (ev.kind == TraceEventKind::kSolve) ++verdicts;
      if (ev.kind == TraceEventKind::kFaultApply) at_apply = verdicts;
      if (ev.kind == TraceEventKind::kFaultRecover) at_restore = verdicts;
    }
  } probe;
  TraceBus bus;
  bus.add_sink(probe);
  OrchestratorConfig cfg =
      static_config(AdmissionPolicyKind::kLocalityOnly, true);
  cfg.trace = &bus;
  cfg.faults.brownout(TimePoint::origin() + Duration::millis(1000),
                      Duration::millis(500), "tor1->spine0", 0.5);
  const ClusterRunReport r = run_contended_pair(cfg);
  bus.flush();

  EXPECT_EQ(r.faults_applied, 2u);
  // The second admission solved the shared group once; the brownout and the
  // restoration each re-derive its gates.
  EXPECT_EQ(probe.at_apply, 1);
  EXPECT_GT(probe.at_restore, probe.at_apply);
  EXPECT_GT(probe.verdicts, probe.at_restore);
  for (const auto& j : r.jobs) {
    EXPECT_EQ(j.state, ClusterJobOutcome::State::kRunning) << j.name;
    EXPECT_GT(j.iterations, 10u) << j.name;
  }
}

TEST(StaticJobSet, UnplaceableJobIsQueuedThenRejected) {
  const Topology topo =
      Topology::leaf_spine(1, 2, 1, Rate::gbps(50), Rate::gbps(100));
  OrchestratorConfig cfg =
      static_config(AdmissionPolicyKind::kLocalityOnly, false);
  cfg.horizon = Duration::millis(500);
  const ArrivalSchedule schedule = at_start(
      {static_request("fits", 2), static_request("too-big", 8)}, cfg.horizon);
  const ClusterRunReport waiting = Orchestrator(topo, schedule, cfg).run();
  EXPECT_EQ(waiting.jobs[0].state, ClusterJobOutcome::State::kRunning);
  EXPECT_EQ(waiting.jobs[1].state, ClusterJobOutcome::State::kQueued);
  EXPECT_EQ(waiting.queued_at_end, 1u);

  cfg.admission.queue_timeout = Duration::millis(200);
  const ClusterRunReport gave_up = Orchestrator(topo, schedule, cfg).run();
  EXPECT_EQ(gave_up.jobs[1].state, ClusterJobOutcome::State::kRejected);
  EXPECT_EQ(gave_up.rejected, 1u);
}

TEST(ClusterRunReport, SlowdownStatisticsSkipUnmeasuredJobs) {
  ClusterRunReport r;
  r.jobs.resize(3);
  r.jobs[0].slowdown = 1.1;
  r.jobs[1].slowdown = 1.3;  // jobs[2] never finished an iteration
  EXPECT_NEAR(r.mean_slowdown(), 1.2, 1e-9);
  EXPECT_NEAR(r.max_slowdown(), 1.3, 1e-9);
}

}  // namespace
}  // namespace ccml
