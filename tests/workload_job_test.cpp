#include "workload/job.h"

#include <gtest/gtest.h>

#include "cc/max_min_fair.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/profiler.h"

namespace ccml {
namespace {

struct Fixture {
  Fixture() : topo(Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50))),
              router(topo) {
    NetworkConfig cfg;
    cfg.goodput_factor = 1.0;
    cfg.step = Duration::micros(20);
    net = std::make_unique<Network>(topo, std::make_unique<MaxMinFairPolicy>(),
                                    cfg);
    net->attach(sim);
    hosts = topo.hosts();
  }

  JobSpec spec(int pair, JobProfile profile) {
    JobSpec s;
    s.id = JobId{pair};
    s.name = "job" + std::to_string(pair);
    s.profile = std::move(profile);
    s.paths = {JobPath{hosts[2 * pair], hosts[2 * pair + 1],
                       router.pick(hosts[2 * pair], hosts[2 * pair + 1], 0)}};
    return s;
  }

  Simulator sim;
  Topology topo;
  Router router;
  std::unique_ptr<Network> net;
  std::vector<NodeId> hosts;
};

// 10 ms compute + 62.5 MB at 50 Gbps (= 10 ms) => 20 ms iterations.
JobProfile toy_profile() {
  return ModelZoo::synthetic("toy", Duration::millis(10), Bytes::mega(62.5));
}

TEST(TrainingJob, SoloIterationTimeIsComputePlusTransfer) {
  Fixture f;
  TrainingJob job(f.sim, *f.net, f.spec(0, toy_profile()));
  job.start();
  f.sim.run_for(Duration::millis(205));
  ASSERT_GE(job.completed_iterations(), 10u);
  for (const Duration d : job.iteration_times()) {
    EXPECT_NEAR(d.to_millis(), 20.0, 0.1);
  }
}

TEST(TrainingJob, MaxIterationsStopsJobAndFiresCallback) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  s.max_iterations = 3;
  TrainingJob job(f.sim, *f.net, std::move(s));
  bool done = false;
  job.on_done = [&](const TrainingJob& j) {
    done = true;
    EXPECT_EQ(j.completed_iterations(), 3u);
  };
  job.start();
  f.sim.run_for(Duration::seconds(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(job.phase(), TrainingJob::Phase::kDone);
  EXPECT_EQ(job.completed_iterations(), 3u);
}

TEST(TrainingJob, OnIterationCallbackSeesEveryIteration) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  s.max_iterations = 5;
  TrainingJob job(f.sim, *f.net, std::move(s));
  std::vector<std::size_t> seen;
  job.on_iteration = [&](std::size_t idx, Duration d) {
    seen.push_back(idx);
    EXPECT_GT(d.to_millis(), 0.0);
  };
  job.start();
  f.sim.run_for(Duration::seconds(1));
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainingJob, DelayedStart) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  s.start = TimePoint::origin() + Duration::millis(50);
  s.max_iterations = 1;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(80));
  ASSERT_EQ(job.completed_iterations(), 1u);
  EXPECT_EQ(job.iteration_starts().front(),
            TimePoint::origin() + Duration::millis(50));
}

TEST(TrainingJob, ZeroCommBytesIteratesOnComputeAlone) {
  Fixture f;
  JobProfile p = ModelZoo::synthetic("cpu", Duration::millis(5), Bytes::zero());
  JobSpec s = f.spec(0, p);
  s.max_iterations = 4;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 4u);
  for (const Duration d : job.iteration_times()) {
    EXPECT_NEAR(d.to_millis(), 5.0, 1e-6);
  }
}

TEST(TrainingJob, ZeroComputeCommOnly) {
  Fixture f;
  JobProfile p = ModelZoo::synthetic("net", Duration::zero(), Bytes::mega(62.5));
  JobSpec s = f.spec(0, p);
  s.max_iterations = 3;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 3u);
  for (const Duration d : job.iteration_times()) {
    EXPECT_NEAR(d.to_millis(), 10.0, 0.1);
  }
}

TEST(TrainingJob, TwoJobsShareBottleneckIterationStretch) {
  Fixture f;
  // Both jobs identical, started together, ideal fair sharing: comm phases
  // overlap forever, so iterations run compute + 2x transfer = 30 ms.
  TrainingJob a(f.sim, *f.net, f.spec(0, toy_profile()));
  TrainingJob b(f.sim, *f.net, f.spec(1, toy_profile()));
  a.start();
  b.start();
  f.sim.run_for(Duration::millis(500));
  ASSERT_GE(a.completed_iterations(), 5u);
  ASSERT_GE(b.completed_iterations(), 5u);
  // Skip the first iteration (transient) and check the steady state.
  for (std::size_t i = 1; i < a.completed_iterations(); ++i) {
    EXPECT_NEAR(a.iteration_times()[i].to_millis(), 30.0, 0.5) << i;
  }
}

TEST(TrainingJob, GateDelaysCommPhase) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  // Compute ends at 10 ms but communication is only admitted at
  // epoch + 15 ms (+ k * 20 ms).
  s.gate = CommGate{TimePoint::origin(), Duration::millis(15),
                    Duration::millis(20)};
  s.max_iterations = 2;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 2u);
  // Iter 0: compute [0,10), wait to 15, comm [15,25) => 25 ms.
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 25.0, 0.1);
  // Iter 1: starts at 25, compute ends 35, gate slot also 35 => 20 ms.
  EXPECT_NEAR(job.iteration_times()[1].to_millis(), 20.0, 0.1);
}

TEST(TrainingJob, GateInPastAdmitsImmediately) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  s.gate = CommGate{TimePoint::origin(), Duration::zero(),
                    Duration::millis(10)};
  s.max_iterations = 1;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(50));
  ASSERT_EQ(job.completed_iterations(), 1u);
  // Compute ends at 10 ms, which is exactly a slot boundary: no wait.
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 20.0, 0.1);
}

TEST(TrainingJob, GateWindowAdmitsLateArrivals) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  // Slots at 8 ms + k*20 ms with a 5 ms window: compute ends at 10 ms,
  // which is 2 ms into the window of the slot at 8 ms -> admitted
  // immediately, iteration stays 20 ms.
  s.gate = CommGate{TimePoint::origin(), Duration::millis(8),
                    Duration::millis(20), {}, Duration::millis(5)};
  s.max_iterations = 2;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 2u);
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 20.0, 0.1);
}

TEST(TrainingJob, GateWindowExpiredWaitsForNextSlot) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  // Slots at 5 ms + k*20 ms with a 2 ms window: compute ends at 10 ms,
  // 5 ms past the slot and outside the window -> wait until 25 ms.
  s.gate = CommGate{TimePoint::origin(), Duration::millis(5),
                    Duration::millis(20), {}, Duration::millis(2)};
  s.max_iterations = 1;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 1u);
  // Comm [25, 35) => iteration 35 ms.
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 35.0, 0.1);
}

TEST(TrainingJob, ComputeJitterPerturbsIterations) {
  Fixture f;
  JobSpec s = f.spec(0, toy_profile());
  s.compute_jitter = Duration::millis(2);
  s.jitter_seed = 17;
  s.max_iterations = 30;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::seconds(2));
  ASSERT_EQ(job.completed_iterations(), 30u);
  Summary stats;
  for (const Duration d : job.iteration_times()) stats.add(d.to_millis());
  EXPECT_NEAR(stats.mean(), 20.0, 1.5);
  EXPECT_GT(stats.stddev(), 0.5);  // jitter visible
  EXPECT_LT(stats.stddev(), 5.0);
}

TEST(TrainingJob, JitterDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Fixture f;
    JobSpec s = f.spec(0, toy_profile());
    s.compute_jitter = Duration::millis(2);
    s.jitter_seed = seed;
    s.max_iterations = 5;
    TrainingJob job(f.sim, *f.net, std::move(s));
    job.start();
    f.sim.run_for(Duration::seconds(1));
    return job.iteration_times();
  };
  const auto a = run(3), b = run(3), c = run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ns(), b[i].ns());
  }
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a[i].ns() != c[i].ns()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(TrainingJob, MultiPathSplitsBytes) {
  Fixture f;
  JobProfile p = toy_profile();
  JobSpec s = f.spec(0, p);
  // Two identical paths between different host pairs; split 62.5 MB across
  // both => each path carries 31.25 MB; both cross the same 50 Gbps
  // bottleneck so total transfer time stays 10 ms.
  s.paths.push_back(
      JobPath{f.hosts[2], f.hosts[3], f.router.pick(f.hosts[2], f.hosts[3], 0)});
  s.max_iterations = 2;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 2u);
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 20.0, 0.2);
}

TEST(TrainingJob, NoSplitEachPathCarriesFullBytes) {
  Fixture f;
  JobProfile p = toy_profile();
  JobSpec s = f.spec(0, p);
  s.paths.push_back(
      JobPath{f.hosts[2], f.hosts[3], f.router.pick(f.hosts[2], f.hosts[3], 0)});
  s.split_bytes = false;
  s.max_iterations = 1;
  TrainingJob job(f.sim, *f.net, std::move(s));
  job.start();
  f.sim.run_for(Duration::millis(100));
  ASSERT_EQ(job.completed_iterations(), 1u);
  // 2 x 62.5 MB through a 50 Gbps bottleneck = 20 ms of comm + 10 compute.
  EXPECT_NEAR(job.iteration_times()[0].to_millis(), 30.0, 0.3);
}

TEST(TrainingJob, DestructorAbortsLiveFlows) {
  Fixture f;
  {
    TrainingJob job(f.sim, *f.net, f.spec(0, toy_profile()));
    job.start();
    f.sim.run_for(Duration::millis(12));  // mid-communication
    EXPECT_EQ(f.net->active_flow_count(), 1u);
  }
  EXPECT_EQ(f.net->active_flow_count(), 0u);
}

TEST(Profiler, AnalyticProfileMatchesClosedForm) {
  const JobProfile p = toy_profile();
  const CommProfile prof = analytic_profile(p, Rate::gbps(50));
  EXPECT_NEAR(prof.period.to_millis(), 20.0, 1e-6);
  ASSERT_EQ(prof.arcs.size(), 1u);
  EXPECT_NEAR(prof.arcs[0].start.to_millis(), 10.0, 1e-6);
  EXPECT_NEAR(prof.arcs[0].length.to_millis(), 10.0, 1e-6);
  EXPECT_NEAR(prof.comm_fraction(), 0.5, 1e-9);
}

TEST(Profiler, MeasuredProfileCloseToAnalytic) {
  const JobProfile p = toy_profile();
  ProfilerOptions opts;
  opts.iterations = 20;
  opts.warmup = 3;
  opts.policy = PolicyKind::kMaxMinFair;
  opts.goodput_factor = 1.0;
  const MeasuredProfile m = measure_profile(p, opts);
  EXPECT_NEAR(m.mean_iteration.to_millis(), 20.0, 0.3);
  EXPECT_NEAR(m.profile.comm_fraction(), 0.5, 0.02);
  EXPECT_GT(m.mean_comm_rate.to_gbps(), 45.0);
}

TEST(Profiler, MeasuredProfileUnderDcqcnIsSlightlySlower) {
  const JobProfile p = toy_profile();
  ProfilerOptions opts;
  opts.iterations = 15;
  opts.warmup = 3;
  opts.policy = PolicyKind::kDcqcn;
  opts.goodput_factor = 1.0;
  const MeasuredProfile m = measure_profile(p, opts);
  // DCQCN backs off around the RED band, so comm is a touch slower than the
  // ideal, but within 25%.
  EXPECT_GT(m.mean_iteration.to_millis(), 19.5);
  EXPECT_LT(m.mean_iteration.to_millis(), 25.0);
}

TEST(Profiler, RejectsNoIterationsPastTheWarmup) {
  ProfilerOptions opts;
  opts.iterations = opts.warmup;
  EXPECT_THROW(measure_profile(toy_profile(), opts), std::invalid_argument);
  opts.iterations = opts.warmup + 1;
  EXPECT_NO_THROW(measure_profile(toy_profile(), opts));
}

}  // namespace
}  // namespace ccml
