#include "core/solver.h"

#include <gtest/gtest.h>

#include "sim/sweep.h"

namespace ccml {
namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms, double demand_gbps = 42.5) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(demand_gbps));
}

/// Checks that the returned rotations truly avoid any pairwise overlap.
void expect_zero_overlap(const std::vector<CommProfile>& jobs,
                         const SolverResult& result) {
  const UnifiedCircle circle(jobs);
  EXPECT_NEAR(circle.overlap_fraction(result.rotations), 0.0, 1e-12);
  EXPECT_LE(circle.max_concurrency(result.rotations), 1);
}

TEST(Solver, SingleJobAlwaysCompatible) {
  const std::vector<CommProfile> jobs = {job("a", 100, 20)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.proven);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
}

TEST(Solver, TwoLightJobsCompatible) {
  // comm fractions 0.3 + 0.3 <= 1 with equal periods: rotatable apart.
  const std::vector<CommProfile> jobs = {job("a", 1000, 700),
                                         job("b", 1000, 700)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.proven);
  expect_zero_overlap(jobs, r);
}

TEST(Solver, TwoHeavyJobsIncompatible) {
  // comm fractions 0.7 + 0.7 > 1: impossible.
  const std::vector<CommProfile> jobs = {job("a", 100, 30), job("b", 100, 30)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_FALSE(r.compatible);
  EXPECT_TRUE(r.proven);  // refuted by the necessary condition
  EXPECT_GT(r.violation_fraction, 0.0);
}

TEST(Solver, NecessaryConditionCountMode) {
  CompatibilitySolver solver;
  const std::vector<CommProfile> light = {job("a", 100, 70),
                                          job("b", 100, 70)};
  EXPECT_TRUE(solver.necessary_condition(light));
  const std::vector<CommProfile> heavy = {job("a", 100, 20),
                                          job("b", 100, 20)};
  EXPECT_FALSE(solver.necessary_condition(heavy));
}

TEST(Solver, ExactFitCompatible) {
  // comm 0.5 + 0.5 = 1.0 exactly: only the half-turn rotation works.
  const std::vector<CommProfile> jobs = {job("a", 100, 50), job("b", 100, 50)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  expect_zero_overlap(jobs, r);
  EXPECT_NEAR(wrap_to_circle(r.rotations[1] - r.rotations[0],
                             Duration::millis(100))
                  .to_millis(),
              50.0, 1.0);
}

TEST(Solver, DifferentPeriodsFig5) {
  // Fig. 5-style: 40 ms and 60 ms periods, light comm: compatible.  (Note:
  // replication makes mismatched periods surprisingly restrictive — comm of
  // 10/40 and 15/60 is already infeasible — so these jobs are lighter.)
  const std::vector<CommProfile> jobs = {job("J1", 40, 34), job("J2", 60, 50)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_TRUE(r.compatible);
  expect_zero_overlap(jobs, r);
}

TEST(Solver, DifferentPeriodsHeavyIncompatible) {
  // Sum of replicated comm exceeds the unified circle.
  const std::vector<CommProfile> jobs = {job("J1", 40, 10), job("J2", 60, 20)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_FALSE(r.compatible);
}

TEST(Solver, MismatchedPeriodsCanBlockEvenLightJobs) {
  // J1 (period 40, comm 15) replicates 3x on the 120-circle; J2 (period 60,
  // comm 35) needs a 35-gap, but J1's comm phases are at most 25 apart.
  const std::vector<CommProfile> jobs = {job("J1", 40, 25), job("J2", 60, 25)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  // Necessary condition holds (45 + 70 = 115 <= 120) but geometry blocks it.
  EXPECT_TRUE(CompatibilitySolver().necessary_condition(jobs));
  EXPECT_FALSE(r.compatible);
}

TEST(Solver, ThreeJobsCompatible) {
  const std::vector<CommProfile> jobs = {job("a", 90, 60), job("b", 90, 60),
                                         job("c", 90, 60)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  expect_zero_overlap(jobs, r);
}

TEST(Solver, ThreeJobsOneTooMany) {
  const std::vector<CommProfile> jobs = {job("a", 90, 50), job("b", 90, 50),
                                         job("c", 90, 50)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_FALSE(r.compatible);
  EXPECT_TRUE(r.proven);  // 3 * 40/90 > 1 refutes
}

TEST(Solver, RotationsAreWithinJobPeriods) {
  const std::vector<CommProfile> jobs = {job("a", 40, 30), job("b", 60, 45)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_EQ(r.rotations.size(), 2u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_GE(r.rotations[j], Duration::zero());
    EXPECT_LT(r.rotations[j], jobs[j].period);
  }
}

TEST(Solver, AnnealingFindsLowOverlapForIncompatible) {
  const std::vector<CommProfile> jobs = {job("a", 100, 30), job("b", 100, 30)};
  SolverOptions opts;
  opts.anneal_iterations = 5000;
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  EXPECT_FALSE(r.compatible);
  // Best case overlap: 0.7 + 0.7 - 1 = 0.4 of the circle must collide.
  EXPECT_NEAR(r.violation_fraction, 0.4, 0.05);
}

TEST(Solver, BandwidthModeAllowsConcurrentLightDemands) {
  // Two jobs each demanding 20 Gbps on a 50 Gbps link may overlap freely.
  SolverOptions opts;
  opts.mode = SolverOptions::Mode::kBandwidth;
  opts.link_capacity = Rate::gbps(50);
  const std::vector<CommProfile> jobs = {job("a", 100, 30, 20.0),
                                         job("b", 100, 30, 20.0)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  EXPECT_TRUE(r.compatible);
}

TEST(Solver, BandwidthModeRejectsOversubscription) {
  SolverOptions opts;
  opts.mode = SolverOptions::Mode::kBandwidth;
  opts.link_capacity = Rate::gbps(50);
  // 30 + 30 > 50 while both communicate 70% of the time: infeasible.
  const std::vector<CommProfile> jobs = {job("a", 100, 30, 30.0),
                                         job("b", 100, 30, 30.0)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  EXPECT_FALSE(r.compatible);
}

TEST(Solver, Table1DlrmPairCompatible) {
  // DLRM(2000): 700 ms compute, 300 ms comm, period 1000 ms.
  const std::vector<CommProfile> jobs = {job("dlrm", 1000, 700),
                                         job("dlrm", 1000, 700)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_TRUE(r.compatible);
}

TEST(Solver, Table1TripleCompatible) {
  // VGG19(1400) ~ (270, 60), VGG16(1700) ~ (270, 60), ResNet50(1600) ~
  // (163, 2): two heavy-but-light-comm jobs plus one job with near-zero
  // communication; the group packs onto one circle.
  const std::vector<CommProfile> jobs = {job("vgg19", 330, 270),
                                         job("vgg16", 330, 270),
                                         job("resnet", 165, 163)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_TRUE(r.compatible);
}

TEST(Solver, ReportsNodesExplored) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 60)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_GT(r.nodes_explored, 0u);
}

TEST(Solver, AnnealingFallbackIsDeterministic) {
  // An incompatible trio (total comm > any rotation can separate) exercises
  // the annealing fallback.  Same seed + same job set must give identical
  // rotations and residual overlap on every run — the warm-start/caching
  // path above the solver (orch/resolve.h) relies on solves being pure
  // functions of their inputs.
  SolverOptions opts;
  opts.search_budget = 50;  // force the DFS to give up quickly
  opts.anneal_iterations = 2'000;
  const std::vector<CommProfile> jobs = {job("a", 97, 40), job("b", 89, 35),
                                         job("c", 83, 30)};
  const SolverResult first = CompatibilitySolver(opts).solve(jobs);
  for (int rep = 0; rep < 3; ++rep) {
    const SolverResult again = CompatibilitySolver(opts).solve(jobs);
    EXPECT_EQ(again.compatible, first.compatible);
    EXPECT_EQ(again.rotations, first.rotations);
    EXPECT_DOUBLE_EQ(again.violation_fraction, first.violation_fraction);
    EXPECT_DOUBLE_EQ(again.overlap_fraction, first.overlap_fraction);
  }
  // A different annealing seed is allowed to land elsewhere; determinism is
  // per (seed, input), not a single global optimum.
  SolverOptions reseeded = opts;
  reseeded.seed = opts.seed + 1;
  const SolverResult other = CompatibilitySolver(reseeded).solve(jobs);
  EXPECT_EQ(other.rotations.size(), jobs.size());
}

TEST(Solver, AnnealingDeterministicAcrossSweepThreadCounts) {
  SolverOptions opts;
  opts.search_budget = 50;
  opts.anneal_iterations = 1'000;
  const std::vector<std::vector<CommProfile>> groups = {
      {job("a", 97, 40), job("b", 89, 35), job("c", 83, 30)},
      {job("d", 101, 45), job("e", 91, 38)},
      {job("f", 79, 30), job("g", 73, 28), job("h", 71, 26)},
      {job("i", 103, 50), job("j", 107, 52)},
  };
  const auto solve_all = [&](unsigned threads) {
    SweepOptions sw;
    sw.threads = threads;
    SweepRunner pool(sw);
    return pool.run(groups, [&](const std::vector<CommProfile>& g,
                                std::size_t) {
      return CompatibilitySolver(opts).solve(g);
    });
  };
  const auto solo = solve_all(1);
  const auto fanned = solve_all(4);
  ASSERT_EQ(solo.size(), fanned.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo[i].compatible, fanned[i].compatible) << "group " << i;
    EXPECT_EQ(solo[i].rotations, fanned[i].rotations) << "group " << i;
    EXPECT_DOUBLE_EQ(solo[i].violation_fraction, fanned[i].violation_fraction)
        << "group " << i;
    EXPECT_EQ(solo[i].nodes_explored, fanned[i].nodes_explored)
        << "group " << i;
  }
}

TEST(Solver, WarmStartWitnessShortCircuitsSearch) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 60)};
  const SolverResult cold = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(cold.compatible);
  EXPECT_GT(cold.nodes_explored, 0u);

  SolverOptions opts;
  opts.warm_start = cold.rotations;
  const SolverResult warm = CompatibilitySolver(opts).solve(jobs);
  EXPECT_TRUE(warm.compatible);
  EXPECT_TRUE(warm.proven);
  EXPECT_EQ(warm.nodes_explored, 0u) << "a zero-violation witness must "
                                        "answer without searching";
  EXPECT_EQ(warm.rotations, cold.rotations);
  expect_zero_overlap(jobs, warm);

  // A violating warm start must not be trusted: the solver searches and
  // still lands on a zero-overlap solution.
  SolverOptions bad;
  bad.warm_start = {Duration::zero(), Duration::zero()};  // fully overlapped
  const SolverResult searched = CompatibilitySolver(bad).solve(jobs);
  EXPECT_TRUE(searched.compatible);
  EXPECT_GT(searched.nodes_explored, 0u);
  expect_zero_overlap(jobs, searched);
}

TEST(Solver, TinySearchBudgetFallsBackUnproven) {
  SolverOptions opts;
  opts.search_budget = 3;
  opts.anneal_iterations = 50;  // keep it cheap; likely not finding zero
  const std::vector<CommProfile> jobs = {job("a", 97, 75), job("b", 89, 70),
                                         job("c", 83, 65)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  // With an exhausted budget and (likely) no perfect anneal solution, the
  // result must not claim a proven verdict of incompatibility.
  if (!r.compatible) {
    EXPECT_FALSE(r.proven);
  }
}

}  // namespace
}  // namespace ccml
