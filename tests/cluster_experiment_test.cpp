#include "cluster/experiment.h"

#include <gtest/gtest.h>

#include "obs/trace_bus.h"

namespace ccml {
namespace {

JobRequest request(const char* name, int workers, std::int64_t period_ms,
                   std::int64_t compute_ms) {
  JobRequest r;
  r.name = name;
  r.workers = workers;
  r.profile = ModelZoo::synthetic(
      name, Duration::millis(compute_ms),
      Rate::gbps(42.5) * Duration::millis(period_ms - compute_ms));
  r.comm_profile = CommProfile::single_phase(name, Duration::millis(period_ms),
                                             Duration::millis(compute_ms),
                                             Rate::gbps(42.5));
  return r;
}

TEST(ClusterExperiment, RackLocalJobsRunAtSoloSpeed) {
  const Topology topo =
      Topology::leaf_spine(2, 4, 2, Rate::gbps(50), Rate::gbps(100));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(3);
  const auto result = run_cluster_experiment(
      topo, {request("a", 4, 100, 70), request("b", 4, 100, 70)}, placement,
      cfg);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const auto& o : result.outcomes) {
    EXPECT_TRUE(o.placed);
    EXPECT_GT(o.iterations, 10u);
    // Rack-local ring through a non-blocking ToR: no contention, so the
    // iteration time matches the solo baseline closely.
    EXPECT_NEAR(o.slowdown, 1.0, 0.05) << o.name;
  }
}

TEST(ClusterExperiment, SharedFabricSlowsJobsDown) {
  // Two 5-worker jobs in 3 racks of 4: both must span, and both rings end
  // up using rack-1 uplinks, so they contend on shared fabric links.
  const Topology topo =
      Topology::leaf_spine(3, 4, 1, Rate::gbps(50), Rate::gbps(50));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(3);
  const auto result = run_cluster_experiment(
      topo, {request("a", 5, 100, 70), request("b", 5, 100, 70)}, placement,
      cfg);
  ASSERT_EQ(result.outcomes.size(), 2u);
  double worst = 0;
  for (const auto& o : result.outcomes) {
    ASSERT_TRUE(o.placed);
    worst = std::max(worst, o.slowdown);
  }
  EXPECT_GT(worst, 1.1);
}

TEST(ClusterExperiment, FlowScheduleRemovesContention) {
  // Same contended setup, but the §4(iii) flow scheduler gates comm phases
  // using solver rotations: both jobs should approach solo speed.
  const Topology topo =
      Topology::leaf_spine(3, 4, 1, Rate::gbps(50), Rate::gbps(50));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(3);
  cfg.flow_schedule = true;
  const auto result = run_cluster_experiment(
      topo, {request("a", 5, 100, 70), request("b", 5, 100, 70)}, placement,
      cfg);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const auto& o : result.outcomes) {
    ASSERT_TRUE(o.placed);
    EXPECT_GT(o.iterations, 10u);
    EXPECT_LT(o.slowdown, 1.12) << o.name;
  }
}

TEST(ClusterExperiment, BrownoutReSolvesGatesAfterRestoration) {
  // The flow-scheduled contended setup above, with a brownout on a fabric
  // link both rings cross.  The solve counter is read as each fault event
  // is published, before the injector's gate hook runs.
  struct SolveProbe : TraceSink {
    TraceBus* bus = nullptr;
    std::int64_t at_apply = -1;
    std::int64_t at_restore = -1;
    void attached(TraceBus& b) override { bus = &b; }
    void on_event(const TraceEvent& ev) override {
      const std::int64_t solves = bus->counter("solver.solves").value();
      if (ev.kind == TraceEventKind::kFaultApply) at_apply = solves;
      if (ev.kind == TraceEventKind::kFaultRecover) at_restore = solves;
    }
  } probe;
  TraceBus bus;
  bus.add_sink(probe);

  const Topology topo =
      Topology::leaf_spine(3, 4, 1, Rate::gbps(50), Rate::gbps(50));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(3);
  cfg.flow_schedule = true;
  cfg.trace = &bus;
  cfg.faults.brownout(TimePoint::origin() + Duration::millis(1000),
                      Duration::millis(500), "tor1->spine0", 0.5);
  const auto result = run_cluster_experiment(
      topo, {request("a", 5, 100, 70), request("b", 5, 100, 70)}, placement,
      cfg);

  ASSERT_EQ(result.faults_applied.size(), 2u);
  EXPECT_EQ(result.faults_applied[0].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(result.faults_applied[0].link_name, "tor1->spine0");
  EXPECT_DOUBLE_EQ(result.faults_applied[0].factor, 0.5);
  EXPECT_EQ(result.faults_applied[1].kind, FaultKind::kLinkUp);
  // The start-of-run schedule solved the shared group once; the brownout
  // and the restoration each re-solve it.
  EXPECT_EQ(probe.at_apply, 1);
  EXPECT_GT(probe.at_restore, probe.at_apply);
  EXPECT_GT(bus.counter("solver.solves").value(), probe.at_restore);
  for (const auto& o : result.outcomes) {
    ASSERT_TRUE(o.placed);
    EXPECT_GT(o.iterations, 10u) << o.name;
  }
}

TEST(ClusterExperiment, UnplacedJobReported) {
  const Topology topo =
      Topology::leaf_spine(1, 2, 1, Rate::gbps(50), Rate::gbps(100));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.run_time = Duration::millis(500);
  const auto result = run_cluster_experiment(
      topo, {request("fits", 2, 100, 70), request("too-big", 8, 100, 70)},
      placement, cfg);
  EXPECT_TRUE(result.outcomes[0].placed);
  EXPECT_FALSE(result.outcomes[1].placed);
  EXPECT_EQ(result.placement.failed, 1);
}

TEST(ClusterExperiment, MeanAndMaxSlowdown) {
  ExperimentResult r;
  r.outcomes.push_back({"a", 10, 110, 110, 120, 100, 1.1, true, false});
  r.outcomes.push_back({"b", 10, 130, 130, 140, 100, 1.3, true, false});
  r.outcomes.push_back({"unplaced", 0, 0, 0, 0, 100, 0.0, false, false});
  EXPECT_NEAR(r.mean_slowdown(), 1.2, 1e-9);
  EXPECT_NEAR(r.max_slowdown(), 1.3, 1e-9);
}

TEST(ClusterExperiment, UniquePrioritiesWithPriorityPolicy) {
  const Topology topo =
      Topology::leaf_spine(3, 4, 1, Rate::gbps(50), Rate::gbps(50));
  LocalityPlacement placement;
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kPriority;
  cfg.unique_priorities = true;
  cfg.run_time = Duration::seconds(3);
  // Compatible pair: strict priorities should interleave them near solo
  // speed (paper §4(ii)).
  const auto result = run_cluster_experiment(
      topo, {request("a", 5, 100, 70), request("b", 5, 100, 70)}, placement,
      cfg);
  for (const auto& o : result.outcomes) {
    ASSERT_TRUE(o.placed);
    EXPECT_LT(o.slowdown, 1.12) << o.name;
  }
}

}  // namespace
}  // namespace ccml
