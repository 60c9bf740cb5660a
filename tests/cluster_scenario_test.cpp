#include "cluster/scenario.h"

#include <gtest/gtest.h>

namespace ccml {
namespace {

JobProfile toy(double compute_ms, double comm_ms) {
  return ModelZoo::synthetic("toy", Duration::from_millis_f(compute_ms),
                             Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

TEST(Scenario, SingleJobRunsAtSoloSpeed) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(2);
  const auto r = run_dumbbell_scenario({{"solo", toy(70, 30)}}, cfg);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GT(r.jobs[0].iterations, 15u);
  EXPECT_NEAR(r.jobs[0].mean_ms, 100.0, 1.0);
}

TEST(Scenario, WarmupIterationsExcluded) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(1);
  cfg.warmup_iterations = 3;
  const auto r = run_dumbbell_scenario({{"j", toy(70, 30)}}, cfg);
  EXPECT_EQ(r.jobs[0].cdf.count() + 3, r.jobs[0].iterations);
  EXPECT_EQ(r.jobs[0].iteration_ms.size(), r.jobs[0].iterations);
}

TEST(Scenario, GoodputMatchesConfig) {
  ScenarioConfig cfg;
  cfg.nic = Rate::gbps(100);
  cfg.goodput_factor = 0.9;
  EXPECT_NEAR(scenario_goodput(cfg).to_gbps(), 90.0, 1e-9);
}

TEST(Scenario, KnobPresetsAreOrdered) {
  // The aggressiveness ladder must be strictly more aggressive at rank 0.
  EXPECT_LT(aggressive_knobs().timer, meek_knobs().timer);
  EXPECT_GT(aggressive_knobs().rai, meek_knobs().rai);
  EXPECT_LE(ranked_knobs(0).timer, ranked_knobs(1).timer);
  EXPECT_LE(ranked_knobs(1).timer, ranked_knobs(2).timer);
  EXPECT_GE(ranked_knobs(0).rai, ranked_knobs(1).rai);
}

TEST(Scenario, ConvergedAfterFindsSuffix) {
  ScenarioJobStats stats;
  stats.iteration_ms = {130, 128, 115, 101, 100, 100, 100};
  EXPECT_EQ(stats.converged_after(100.0, 0.05), 3u);
  EXPECT_EQ(stats.converged_after(130.0, 0.01), stats.iteration_ms.size());
  // All iterations converged from the start:
  ScenarioJobStats flat;
  flat.iteration_ms = {100, 100};
  EXPECT_EQ(flat.converged_after(100.0), 0u);
}

TEST(Scenario, StartOffsetsRespectedInIterationCount) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(1);
  std::vector<ScenarioJob> jobs = {{"early", toy(40, 10)},
                                   {"late", toy(40, 10)}};
  jobs[1].start_offset = Duration::millis(500);
  const auto r = run_dumbbell_scenario(jobs, cfg);
  EXPECT_GT(r.jobs[0].iterations, r.jobs[1].iterations + 5);
}

TEST(Scenario, PriorityFieldReachesPolicy) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kPriority;
  cfg.duration = Duration::seconds(2);
  // Heavy contention: without priorities both slow down; with unique
  // priorities the high-priority job stays at solo speed.
  std::vector<ScenarioJob> jobs = {{"hi", toy(30, 70)}, {"lo", toy(30, 70)}};
  jobs[0].priority = 0;
  jobs[1].priority = 1;
  const auto r = run_dumbbell_scenario(jobs, cfg);
  EXPECT_NEAR(r.jobs[0].mean_ms, 100.0, 3.0);
  EXPECT_GT(r.jobs[1].mean_ms, 150.0);
}

TEST(Scenario, WeightFieldReachesWfq) {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kWfq;
  cfg.duration = Duration::seconds(2);
  cfg.warmup_iterations = 2;
  std::vector<ScenarioJob> jobs = {{"w3", toy(0, 60)}, {"w1", toy(0, 60)}};
  jobs[0].weight = 3.0;
  jobs[1].weight = 1.0;
  const auto r = run_dumbbell_scenario(jobs, cfg);
  // Persistent full-overlap comm: weight-3 job roughly 3x faster.
  EXPECT_LT(r.jobs[0].mean_ms, r.jobs[1].mean_ms * 0.5);
}

}  // namespace
}  // namespace ccml
