#include "faults/injector.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cc/factory.h"
#include "cluster/scenario.h"
#include "faults/recovery.h"
#include "net/routing.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "workload/model_zoo.h"

namespace ccml {
namespace {

TimePoint at_ms(double ms) {
  return TimePoint::origin() + Duration::from_millis_f(ms);
}

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, BuildersExpandAndNormalizeSorts) {
  FaultPlan plan;
  plan.flap(at_ms(100), Duration::from_millis_f(50), "swL->swR");
  plan.depart(at_ms(20), JobId{1});
  plan.straggler(at_ms(60), Duration::from_millis_f(10), JobId{0}, 2.0);
  plan.normalize();
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kJobDepart);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kStragglerOn);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kStragglerOff);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kLinkUp);
  EXPECT_EQ(plan.first_event(), at_ms(20));
  EXPECT_EQ(plan.last_event(), at_ms(150));
  EXPECT_TRUE(plan.churns_jobs());
}

TEST(FaultPlan, NormalizeIsStableForEqualTimes) {
  FaultPlan plan;
  plan.link_down(at_ms(10), "a");
  plan.depart(at_ms(10), JobId{0});
  plan.link_up(at_ms(10), "b");
  plan.normalize();
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kJobDepart);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkUp);
}

// --- Network link state ----------------------------------------------------

TEST(FaultNetwork, LinkDownParksFlowRestorationRequeues) {
  Simulator sim;
  const Topology topo = Topology::dumbbell(1, Rate::gbps(10), Rate::gbps(10));
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();

  FlowSpec fs;
  fs.src = hosts[0];
  fs.dst = hosts[1];
  fs.route = router.pick(hosts[0], hosts[1], 0);
  fs.size = Bytes::mega(10);
  bool done = false;
  const FlowId fid =
      net.start_flow(std::move(fs), [&](const Flow&, TimePoint) { done = true; });

  sim.run_for(Duration::millis(1));
  const LinkId bottleneck = topo.find_link(NodeId{0}, NodeId{1});
  ASSERT_TRUE(bottleneck.valid());

  net.set_link_capacity_factor(bottleneck, 0.0);
  EXPECT_FALSE(net.link_is_up(bottleneck));
  ASSERT_EQ(net.parked_flows().size(), 1u);
  EXPECT_EQ(net.parked_flows()[0], fid);
  EXPECT_TRUE(net.is_active(fid));  // alive, just parked

  sim.run_for(Duration::millis(50));
  EXPECT_FALSE(done);  // no progress while severed

  net.set_link_capacity_factor(bottleneck, 1.0);
  EXPECT_TRUE(net.parked_flows().empty());
  sim.run_for(Duration::millis(50));
  EXPECT_TRUE(done);
}

TEST(FaultNetwork, BrownoutShrinksEffectiveCapacity) {
  Simulator sim;
  const Topology topo = Topology::dumbbell(1, Rate::gbps(10), Rate::gbps(10));
  NetworkConfig ncfg;
  ncfg.goodput_factor = 1.0;
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), ncfg);
  net.attach(sim);
  const LinkId bottleneck = topo.find_link(NodeId{0}, NodeId{1});
  EXPECT_DOUBLE_EQ(net.effective_capacity(bottleneck).to_gbps(), 10.0);
  net.set_link_capacity_factor(bottleneck, 0.25);
  EXPECT_DOUBLE_EQ(net.effective_capacity(bottleneck).to_gbps(), 2.5);
  EXPECT_DOUBLE_EQ(net.link_capacity_factor(bottleneck), 0.25);
  EXPECT_TRUE(net.link_is_up(bottleneck));
}

// --- Injector: reroute-on-failure -----------------------------------------

TEST(FaultInjector, ReroutesAroundFailedSpineLink) {
  Simulator sim;
  // Two ToRs, one host each, two spines: two equal-cost paths between hosts.
  const Topology topo =
      Topology::leaf_spine(2, 1, 2, Rate::gbps(10), Rate::gbps(10));
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();
  ASSERT_EQ(hosts.size(), 2u);

  FlowSpec fs;
  fs.src = hosts[0];
  fs.dst = hosts[1];
  fs.route = router.pick(hosts[0], hosts[1], 0);
  fs.size = Bytes::mega(200);
  ASSERT_EQ(fs.route.links.size(), 4u);  // host->tor->spine->tor->host
  const LinkId spine_link = fs.route.links[1];

  FaultPlan plan;
  plan.link_down(at_ms(1), topo.link(spine_link).name);
  FaultInjector injector(sim, net, plan);

  bool done = false;
  const FlowId fid =
      net.start_flow(std::move(fs), [&](const Flow&, TimePoint) { done = true; });
  injector.arm();

  sim.run_for(Duration::millis(2));
  // The flow survived the failure by moving to the other spine, not parking.
  ASSERT_TRUE(net.is_active(fid));
  EXPECT_TRUE(net.parked_flows().empty());
  EXPECT_FALSE(net.flow(fid).spec.route.traverses(spine_link));
  sim.run_for(Duration::seconds(1));
  EXPECT_TRUE(done);
  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied()[0].link, spine_link);
}

// --- Scenario-level acceptance ---------------------------------------------

ScenarioJob synthetic_job(const std::string& name, bool aggressive) {
  ScenarioJob job;
  job.name = name;
  job.profile = ModelZoo::synthetic(name, Duration::millis(20),
                                    Rate::gbps(42.5) * Duration::millis(25));
  const Aggressiveness k = aggressive ? aggressive_knobs() : meek_knobs();
  job.cc_timer = k.timer;
  job.cc_rai = k.rai;
  return job;
}

// The §2 fixture: two VGG16(1400) jobs with an aggressive/meek knob split.
std::vector<ScenarioJob> vgg_pair() {
  const JobProfile vgg = *ModelZoo::calibrated("VGG16", 1400);
  ScenarioJob a{"J1", vgg};
  a.cc_timer = aggressive_knobs().timer;
  a.cc_rai = aggressive_knobs().rai;
  ScenarioJob b{"J2", vgg};
  b.cc_timer = meek_knobs().timer;
  b.cc_rai = meek_knobs().rai;
  return {a, b};
}

TEST(FaultScenario, BottleneckFlapRecoversUnderEveryPolicy) {
  const PolicyKind policies[] = {
      PolicyKind::kMaxMinFair,    PolicyKind::kWfq,
      PolicyKind::kPriority,      PolicyKind::kDcqcn,
      PolicyKind::kDcqcnAdaptive, PolicyKind::kTimely,
  };
  for (const PolicyKind policy : policies) {
    ScenarioConfig cfg;
    cfg.policy = policy;
    cfg.duration = Duration::seconds(10);
    cfg.warmup_iterations = 3;
    // The paper's §2 bottleneck cable, down for 200 ms mid-run.
    cfg.faults.flap(at_ms(2500), Duration::from_millis_f(200), "swL->swR");
    const ScenarioResult result = run_dumbbell_scenario(vgg_pair(), cfg);
    ASSERT_TRUE(result.recovery.has_value()) << to_string(policy);
    EXPECT_TRUE(result.recovery->all_converged()) << to_string(policy);
    ASSERT_EQ(result.faults_applied.size(), 2u) << to_string(policy);
    EXPECT_EQ(result.faults_applied[0].kind, FaultKind::kLinkDown);
    EXPECT_EQ(result.faults_applied[1].kind, FaultKind::kLinkUp);
    for (const ScenarioJobStats& j : result.jobs) {
      EXPECT_GT(j.iterations, 20u) << to_string(policy) << " " << j.name;
    }
  }
}

TEST(FaultScenario, UnfairDcqcnReinterleavesAfterFlap) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::seconds(10);
  cfg.warmup_iterations = 3;
  cfg.faults.flap(at_ms(3000), Duration::from_millis_f(200), "swL->swR");
  const ScenarioResult result = run_dumbbell_scenario(vgg_pair(), cfg);
  ASSERT_TRUE(result.recovery.has_value());
  // Both jobs return to their interleaved cadence after the outage: the
  // stable tail exists and covers the post-restoration region.
  for (const JobRecovery& j : result.recovery->jobs) {
    EXPECT_TRUE(j.converged) << j.job;
    EXPECT_LT(j.reconverge_ms, 5000.0) << j.job;
  }
  // Interleaving (not starvation): both jobs keep completing iterations at
  // similar rates after recovery.
  const double a = static_cast<double>(result.jobs[0].iterations);
  const double b = static_cast<double>(result.jobs[1].iterations);
  EXPECT_GT(a / b, 0.5);
  EXPECT_LT(a / b, 2.0);
}

TEST(FaultScenario, StragglerSlowsOnlyTargetJobThenRecovers) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(6);
  cfg.warmup_iterations = 3;
  cfg.faults.straggler(at_ms(2000), Duration::from_millis_f(1500), JobId{0},
                       3.0);
  const ScenarioResult result = run_dumbbell_scenario(
      {synthetic_job("slow", false), synthetic_job("ok", false)}, cfg);
  ASSERT_TRUE(result.recovery.has_value());
  EXPECT_TRUE(result.recovery->all_converged());
  EXPECT_GT(result.recovery->jobs[0].iterations_disrupted, 0u);
  EXPECT_GT(result.recovery->jobs[0].goodput_lost_mb, 0.0);
}

TEST(FaultScenario, DepartureFreesBottleneckForSurvivor) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(6);
  cfg.warmup_iterations = 3;
  cfg.faults.depart(at_ms(3000), JobId{1});
  const ScenarioResult result = run_dumbbell_scenario(
      {synthetic_job("stay", false), synthetic_job("leave", false)}, cfg);
  ASSERT_TRUE(result.recovery.has_value());
  EXPECT_TRUE(result.recovery->jobs[1].departed);
  const ScenarioJobStats& stay = result.jobs[0];
  ASSERT_GT(stay.iteration_ms.size(), 10u);
  // With the bottleneck to itself, the survivor's tail iterations are
  // faster than its contended head iterations.
  const double head = stay.iteration_ms[5];
  const double tail = stay.iteration_ms[stay.iteration_ms.size() - 2];
  EXPECT_LT(tail, head);
}

TEST(FaultScenario, PauseAndArrivalChurn) {
  const JobProfile vgg = *ModelZoo::calibrated("VGG16", 1400);
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(10);
  cfg.warmup_iterations = 3;
  cfg.faults.arrive(at_ms(3000), JobId{1});
  cfg.faults.pause(at_ms(5000), Duration::from_millis_f(500), JobId{0});
  const ScenarioResult result =
      run_dumbbell_scenario({{"steady", vgg}, {"late", vgg}}, cfg);
  ASSERT_TRUE(result.recovery.has_value());
  EXPECT_TRUE(result.recovery->all_converged());
  ASSERT_EQ(result.faults_applied.size(), 3u);  // arrive, pause, resume
  // The late job produced fewer iterations than the steady one.
  EXPECT_LT(result.jobs[1].iterations, result.jobs[0].iterations);
  EXPECT_GT(result.jobs[1].iterations, 0u);
}

// --- Determinism -----------------------------------------------------------

std::vector<double> fingerprint(const ScenarioResult& result) {
  std::vector<double> out;
  for (const ScenarioJobStats& j : result.jobs) {
    out.insert(out.end(), j.iteration_ms.begin(), j.iteration_ms.end());
  }
  if (result.recovery) {
    for (const JobRecovery& j : result.recovery->jobs) {
      out.push_back(j.reconverge_ms);
      out.push_back(static_cast<double>(j.iterations_disrupted));
      out.push_back(j.goodput_lost_mb);
    }
  }
  return out;
}

TEST(FaultScenario, DeterministicAcrossSweepThreadCounts) {
  const PolicyKind grid[] = {PolicyKind::kDcqcn, PolicyKind::kTimely,
                             PolicyKind::kMaxMinFair, PolicyKind::kWfq};
  const auto run_grid = [&](unsigned threads) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner pool(opts);
    return pool.run(std::vector<PolicyKind>(std::begin(grid), std::end(grid)),
                    [](PolicyKind policy, std::size_t) {
                      ScenarioConfig cfg;
                      cfg.policy = policy;
                      cfg.duration = Duration::seconds(4);
                      cfg.faults.seed = 7;
                      cfg.faults.flap(at_ms(1500),
                                      Duration::from_millis_f(200),
                                      "swL->swR");
                      cfg.faults.straggler(at_ms(2500),
                                           Duration::from_millis_f(400),
                                           JobId{0}, 2.0);
                      return fingerprint(run_dumbbell_scenario(
                          {synthetic_job("J1", true),
                           synthetic_job("J2", false)},
                          cfg));
                    });
  };
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  const auto parallel_again = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "grid point " << i;
    for (std::size_t k = 0; k < serial[i].size(); ++k) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(serial[i][k], parallel[i][k]) << "grid " << i << " value " << k;
      EXPECT_EQ(parallel[i][k], parallel_again[i][k]);
    }
  }
}

// --- Validation ------------------------------------------------------------

TEST(FaultValidation, InjectorRejectsMalformedPlans) {
  Simulator sim;
  const Topology topo = Topology::dumbbell(1, Rate::gbps(10), Rate::gbps(10));
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  {
    FaultPlan plan;
    plan.brownout(at_ms(1), Duration::millis(1), "swL->swR", 1.5);
    EXPECT_THROW(FaultInjector(sim, net, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.straggler(at_ms(1), Duration::millis(1), JobId{0}, -1.0);
    EXPECT_THROW(FaultInjector(sim, net, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.depart(at_ms(1), JobId{});
    EXPECT_THROW(FaultInjector(sim, net, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_down(at_ms(1), "no-such-link");
    FaultInjector injector(sim, net, plan);
    EXPECT_THROW(injector.arm(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.depart(at_ms(1), JobId{3});  // never bound
    FaultInjector injector(sim, net, plan);
    EXPECT_THROW(injector.arm(), std::invalid_argument);
  }
}

TEST(FaultValidation, ScenarioConfigRejectsBadInput) {
  const std::vector<ScenarioJob> ok = {synthetic_job("J1", false)};
  EXPECT_THROW(validate_scenario({}, {}), std::invalid_argument);
  {
    ScenarioConfig cfg;
    cfg.duration = Duration::zero();
    EXPECT_THROW(validate_scenario(ok, cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.goodput_factor = 0.0;
    EXPECT_THROW(validate_scenario(ok, cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.bottleneck = Rate::zero();
    EXPECT_THROW(validate_scenario(ok, cfg), std::invalid_argument);
  }
  {
    std::vector<ScenarioJob> jobs = ok;
    jobs[0].name.clear();
    EXPECT_THROW(validate_scenario(jobs, {}), std::invalid_argument);
  }
  {
    std::vector<ScenarioJob> jobs = ok;
    jobs[0].weight = -1.0;
    EXPECT_THROW(validate_scenario(jobs, {}), std::invalid_argument);
  }
  {
    std::vector<ScenarioJob> jobs = ok;
    jobs[0].start_offset = Duration::from_millis_f(-5);
    EXPECT_THROW(validate_scenario(jobs, {}), std::invalid_argument);
  }
}

TEST(FaultValidation, JobSpecRejectsBadGateAndPaths) {
  Simulator sim;
  const Topology topo = Topology::dumbbell(1, Rate::gbps(10), Rate::gbps(10));
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();
  const auto base = [&] {
    JobSpec spec;
    spec.id = JobId{0};
    spec.name = "j";
    spec.profile = ModelZoo::synthetic("j", Duration::millis(10),
                                       Bytes::mega(10));
    spec.paths = {JobPath{hosts[0], hosts[1],
                          router.pick(hosts[0], hosts[1], 0)}};
    return spec;
  };
  {
    JobSpec spec = base();
    spec.paths.clear();
    EXPECT_THROW(TrainingJob(sim, net, spec), std::invalid_argument);
  }
  {
    JobSpec spec = base();
    spec.gate = CommGate{TimePoint::origin(), Duration::zero(),
                         Duration::zero(), {}, Duration::zero()};
    EXPECT_THROW(TrainingJob(sim, net, spec), std::invalid_argument);
  }
  {
    JobSpec spec = base();
    spec.gate = CommGate{TimePoint::origin(), Duration::zero(),
                         Duration::millis(10), {}, Duration::millis(20)};
    EXPECT_THROW(TrainingJob(sim, net, spec), std::invalid_argument);
  }
  {
    JobSpec spec = base();
    spec.compute_jitter = Duration::from_millis_f(-1);
    EXPECT_THROW(TrainingJob(sim, net, spec), std::invalid_argument);
  }
  EXPECT_NO_THROW(TrainingJob(sim, net, base()));
}

// --- Recovery metric edge cases --------------------------------------------

TEST(Recovery, UntouchedJobReportsZeroDisruption) {
  FaultPlan plan;
  plan.flap(at_ms(100), Duration::from_millis_f(10), "x");
  JobTrace trace;
  trace.name = "j";
  trace.warmup = 0;
  for (int i = 0; i < 20; ++i) {
    trace.starts.push_back(at_ms(10.0 * i));
    trace.durations.push_back(Duration::from_millis_f(10.0));
  }
  const RecoveryReport report = compute_recovery(plan, {{trace}});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].converged);
  EXPECT_EQ(report.jobs[0].iterations_disrupted, 0u);
  EXPECT_DOUBLE_EQ(report.jobs[0].reconverge_ms, 0.0);
  EXPECT_DOUBLE_EQ(report.jobs[0].goodput_lost_mb, 0.0);
  EXPECT_TRUE(report.all_converged());
}

TEST(Recovery, DisruptedIterationIsCountedAndTailConverges) {
  FaultPlan plan;
  plan.flap(at_ms(50), Duration::from_millis_f(20), "x");
  JobTrace trace;
  trace.name = "j";
  trace.warmup = 0;
  trace.comm_mb_per_iter = 100.0;
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    trace.starts.push_back(at_ms(t));
    const double dur = (i == 5) ? 40.0 : 10.0;  // iteration 5 eats the outage
    trace.durations.push_back(Duration::from_millis_f(dur));
    t += dur;
  }
  const RecoveryReport report = compute_recovery(plan, {{trace}});
  const JobRecovery& j = report.jobs[0];
  EXPECT_TRUE(j.converged);
  EXPECT_NEAR(j.baseline_ms, 10.0, 1e-9);
  EXPECT_EQ(j.iterations_disrupted, 1u);
  EXPECT_EQ(j.converged_after, 6u);
  EXPECT_GT(j.goodput_lost_mb, 0.0);
}

// A 100 ms-cadence trace whose iteration 10 (starting at 1000 ms) is
// stretched by `stretch_ms`.
JobTrace cadence_trace(double stretch_ms) {
  JobTrace trace{.name = "j", .comm_mb_per_iter = 100.0, .warmup = 0};
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    trace.starts.push_back(at_ms(t));
    const double dur = i == 10 ? 100.0 + stretch_ms : 100.0;
    trace.durations.push_back(Duration::from_millis_f(dur));
    t += dur;
  }
  return trace;
}

TEST(Recovery, LossGrowsWithAnAbsorbedOutage) {
  // An outage starting 20 ms into iteration 10 stretches it by a twentieth
  // of the outage's length, inside the 8 % tolerance, so no iteration is
  // disrupted and the span is the fault window.  From 90 ms on the window
  // also holds the stretched iteration's end; a longer outage must still
  // never cost less.
  double prev_mb = 0.0;
  for (int len = 10; len <= 150; len += 10) {
    FaultPlan plan;
    plan.flap(at_ms(1020), Duration::from_millis_f(len), "x");
    const JobRecovery j =
        compute_recovery(plan, {{cadence_trace(len / 20.0)}}).jobs[0];
    EXPECT_EQ(j.iterations_disrupted, 0u) << len << " ms";
    EXPECT_GT(j.goodput_lost_mb, 0.0) << len << " ms";
    EXPECT_GE(j.goodput_lost_mb, prev_mb) << len << " ms";
    prev_mb = j.goodput_lost_mb;
  }
}

TEST(Recovery, BaselineCadenceLosesNothingWhereverTheWindowCuts) {
  // Windows starting and ending mid-iteration, on an iteration edge, and
  // spanning several iterations: a job that kept its cadence lost nothing.
  const JobTrace trace = cadence_trace(0.0);
  for (const auto& [from, len] : {std::pair{1020.0, 50.0},
                                  std::pair{1000.0, 100.0},
                                  std::pair{1050.0, 200.0},
                                  std::pair{1075.0, 333.0}}) {
    FaultPlan plan;
    plan.flap(at_ms(from), Duration::from_millis_f(len), "x");
    const JobRecovery j = compute_recovery(plan, {{trace}}).jobs[0];
    EXPECT_EQ(j.iterations_disrupted, 0u) << from << "+" << len;
    EXPECT_DOUBLE_EQ(j.goodput_lost_mb, 0.0) << from << "+" << len;
  }
}

}  // namespace
}  // namespace ccml
