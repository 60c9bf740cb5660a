#include "core/interference_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/circular.h"

namespace ccml {
namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms, double demand_gbps = 42.5) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(demand_gbps));
}

/// The rotation-consistency invariant: on every shared link, evaluating the
/// per-job GLOBAL rotations (wrapped to each job's own period) must match
/// the violation the result reports — one rotation per job, everywhere.
void expect_rotation_consistency(const std::vector<GraphJob>& jobs,
                                 const GraphResult& r,
                                 const SolverOptions& opts = {}) {
  ASSERT_EQ(r.rotations.size(), jobs.size());
  for (const LinkVerdict& v : r.links) {
    std::vector<CommProfile> profiles;
    std::vector<Duration> rots;
    for (const std::size_t j : v.jobs) {
      profiles.push_back(jobs[j].profile);
      rots.push_back(
          wrap_to_circle(r.rotations[j], jobs[j].profile.period));
    }
    const UnifiedCircle circle(profiles, opts.circle);
    EXPECT_NEAR(static_cast<double>(
                    circle.sweep(rots, violation_limit(opts)).violated_ns) /
                    static_cast<double>(circle.perimeter().ns()),
                v.violation_fraction, 1e-12)
        << "link " << v.link;
  }
}

TEST(InterferenceGraph, EmptyAndSingletonTriviallyCompatible) {
  InterferenceGraph graph;
  const GraphResult empty = graph.solve({});
  EXPECT_TRUE(empty.compatible);
  EXPECT_TRUE(empty.proven);

  const std::vector<GraphJob> solo = {{job("a", 100, 60), {3, 7}}};
  const GraphResult r = graph.solve(solo);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.links.empty());  // no link carries two jobs
  EXPECT_EQ(r.component[0], 0u);
}

TEST(InterferenceGraph, SingleSharedLinkMatchesSingleCircleSolver) {
  const std::vector<GraphJob> jobs = {{job("a", 1000, 700), {5}},
                                      {job("b", 1000, 700), {5}}};
  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.proven);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.links[0].link, 5);
  EXPECT_DOUBLE_EQ(r.worst_violation, 0.0);
  expect_rotation_consistency(jobs, r);

  std::vector<CommProfile> profiles = {jobs[0].profile, jobs[1].profile};
  const SolverResult single = CompatibilitySolver().solve(profiles);
  EXPECT_EQ(single.compatible, r.compatible);
}

TEST(InterferenceGraph, ChainSatisfiableOnlyPerLink) {
  // A--L1--B--L2--C with comm fraction 0.4 each.  On ONE circle
  // 3 * 0.4 = 1.2 > 1: incompatible.  Per link only two jobs meet
  // (2 * 0.4 = 0.8 <= 1), and B's rotation can serve both links at once, so
  // the graph solver must find a fully compatible assignment.
  const std::vector<GraphJob> jobs = {{job("a", 100, 60), {1}},
                                      {job("b", 100, 60), {1, 2}},
                                      {job("c", 100, 60), {2}}};
  std::vector<CommProfile> profiles;
  for (const GraphJob& gj : jobs) profiles.push_back(gj.profile);
  EXPECT_FALSE(CompatibilitySolver().solve(profiles).compatible);

  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.proven);
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_DOUBLE_EQ(r.worst_violation, 0.0);
  // One component spanning all three jobs, labeled by the smallest member.
  EXPECT_EQ(r.component, (std::vector<std::size_t>{0, 0, 0}));
  expect_rotation_consistency(jobs, r);
}

TEST(InterferenceGraph, SpanningJobUsesOneRotationAcrossItsLinks) {
  // B crosses both links; A and C each cross one.  B's single global
  // rotation must be what both link verdicts are evaluated with.
  const std::vector<GraphJob> jobs = {{job("a", 200, 120), {10}},
                                      {job("b", 200, 120), {10, 11}},
                                      {job("c", 200, 120), {11}}};
  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_TRUE(r.compatible);
  expect_rotation_consistency(jobs, r);
  // Both links see job 1 with the same wrapped rotation by construction of
  // the invariant check above; additionally the raw assignment is one value.
  EXPECT_EQ(r.rotations.size(), 3u);
}

TEST(InterferenceGraph, IndependentComponentsSolvedSeparately) {
  const std::vector<GraphJob> jobs = {{job("a", 100, 70), {1}},
                                      {job("b", 100, 70), {1}},
                                      {job("c", 130, 90), {8}},
                                      {job("d", 130, 90), {8}}};
  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_EQ(r.component, (std::vector<std::size_t>{0, 0, 2, 2}));
  expect_rotation_consistency(jobs, r);
}

TEST(InterferenceGraph, ProvenIncompatibleLinkRefutesComponent) {
  // Two jobs with comm fraction 0.7 share a link: the necessary condition
  // refutes them, and the graph must report proven incompatibility.
  const std::vector<GraphJob> jobs = {{job("a", 100, 30), {4}},
                                      {job("b", 100, 30), {4}}};
  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_FALSE(r.compatible);
  EXPECT_TRUE(r.proven);
  EXPECT_GT(r.worst_violation, 0.0);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_FALSE(r.links[0].locally_compatible);
}

TEST(InterferenceGraph, UnsatisfiableCycleDetectedAndScored) {
  // Triangle A--L1--B--L2--C--L3--A where every pair shares a link and each
  // job communicates 50% of the time.  Pairwise each link is (exactly)
  // satisfiable, but jointly the cycle needs 3 half-circle arcs pairwise
  // disjoint on a common clock — impossible (3 * 0.5 > 1).  Propagation
  // must surface a conflict or residual violation, never claim compatible.
  const std::vector<GraphJob> jobs = {{job("a", 100, 50), {1, 3}},
                                      {job("b", 100, 50), {1, 2}},
                                      {job("c", 100, 50), {2, 3}}};
  InterferenceGraph graph;
  const GraphResult r = graph.solve(jobs);
  EXPECT_FALSE(r.compatible);
  EXPECT_GT(r.worst_violation, 0.0);
  // The back edge's implied rotation clashes by half a period: recorded and
  // scored as an unsatisfiable cycle.
  ASSERT_FALSE(r.conflicts.empty());
  EXPECT_GT(r.conflicts[0].mismatch, Duration::zero());
  expect_rotation_consistency(jobs, r);
}

TEST(InterferenceGraph, WarmStartWitnessSkipsLinkSolves) {
  const std::vector<GraphJob> jobs = {{job("a", 100, 60), {1}},
                                      {job("b", 100, 60), {1, 2}},
                                      {job("c", 100, 60), {2}}};
  InterferenceGraph graph;
  const GraphResult cold = graph.solve(jobs);
  ASSERT_TRUE(cold.compatible);
  EXPECT_GT(cold.link_solves, 0u);

  const GraphResult warm = graph.solve(jobs, cold.rotations);
  EXPECT_TRUE(warm.compatible);
  EXPECT_EQ(warm.link_solves, 0u);  // witness answered without solving
  EXPECT_EQ(warm.rotations.size(), cold.rotations.size());
  for (std::size_t j = 0; j < warm.rotations.size(); ++j) {
    EXPECT_EQ(wrap_to_circle(cold.rotations[j], jobs[j].profile.period),
              warm.rotations[j]);
  }
}

TEST(InterferenceGraph, LinkSolverHookReceivesEveryGroup) {
  const std::vector<GraphJob> jobs = {{job("a", 100, 60), {1}},
                                      {job("b", 100, 60), {1, 2}},
                                      {job("c", 100, 60), {2}}};
  InterferenceGraph graph;
  int calls = 0;
  graph.set_link_solver([&](std::span<const CommProfile> profiles,
                            std::vector<Duration> warm) {
    ++calls;
    SolverOptions o;
    o.warm_start = std::move(warm);
    return CompatibilitySolver(o).solve(profiles);
  });
  const GraphResult r = graph.solve(jobs);
  EXPECT_TRUE(r.compatible);
  EXPECT_EQ(calls, 2);  // one per shared link
  EXPECT_EQ(r.link_solves, 2u);
}

TEST(InterferenceGraph, DeterministicAcrossRepeatedSolves) {
  const std::vector<GraphJob> jobs = {{job("a", 100, 50), {1, 3}},
                                      {job("b", 100, 50), {1, 2}},
                                      {job("c", 100, 50), {2, 3}}};
  InterferenceGraph graph;
  const GraphResult r1 = graph.solve(jobs);
  const GraphResult r2 = graph.solve(jobs);
  EXPECT_EQ(r1.compatible, r2.compatible);
  EXPECT_EQ(r1.worst_violation, r2.worst_violation);
  ASSERT_EQ(r1.rotations.size(), r2.rotations.size());
  for (std::size_t j = 0; j < r1.rotations.size(); ++j) {
    EXPECT_EQ(r1.rotations[j].ns(), r2.rotations[j].ns());
  }
}

TEST(InterferenceGraph, ComponentSignatureCanonicalizesLinkIds) {
  // The same structural component on different physical links must share a
  // cache key; a different structure must not.
  const std::vector<GraphJob> a = {{job("a", 100, 60), {10}},
                                   {job("b", 100, 60), {10, 20}},
                                   {job("c", 100, 60), {20}}};
  const std::vector<GraphJob> b = {{job("a", 100, 60), {7}},
                                   {job("b", 100, 60), {7, 9}},
                                   {job("c", 100, 60), {9}}};
  EXPECT_EQ(InterferenceGraph::component_signature(a),
            InterferenceGraph::component_signature(b));

  const std::vector<GraphJob> c = {{job("a", 100, 60), {7}},
                                   {job("b", 100, 60), {7}},
                                   {job("c", 100, 60), {9}}};
  EXPECT_NE(InterferenceGraph::component_signature(a),
            InterferenceGraph::component_signature(c));
}

TEST(InterferenceGraph, PruneDropsLinksFasterThanOfferedLoad) {
  // Three jobs at 42.5 Gb/s demand each.  Link 1 carries two of them
  // (85 Gb/s offered), link 2 carries one (42.5), link 3 carries all
  // three (127.5).  Against 100 Gb/s goodput capacity only link 3 can be
  // a bottleneck; against 50 Gb/s links 1 and 3 survive.
  const auto make = [] {
    return std::vector<GraphJob>{{job("a", 100, 60), {1, 3}},
                                 {job("b", 100, 60), {1, 2, 3}},
                                 {job("c", 100, 60), {3}}};
  };
  std::vector<GraphJob> fat = make();
  prune_uncontended_links(fat, [](std::int32_t) { return Rate::gbps(100); });
  EXPECT_EQ(fat[0].links, (std::vector<std::int32_t>{3}));
  EXPECT_EQ(fat[1].links, (std::vector<std::int32_t>{3}));
  EXPECT_EQ(fat[2].links, (std::vector<std::int32_t>{3}));

  std::vector<GraphJob> thin = make();
  prune_uncontended_links(thin, [](std::int32_t) { return Rate::gbps(50); });
  EXPECT_EQ(thin[0].links, (std::vector<std::int32_t>{1, 3}));
  EXPECT_EQ(thin[1].links, (std::vector<std::int32_t>{1, 3}));
  EXPECT_EQ(thin[2].links, (std::vector<std::int32_t>{3}));

  // A 1:1 fabric (capacity covers even the all-three link) dissolves the
  // graph entirely: the paper's uncontended regime as the special case.
  std::vector<GraphJob> roomy = make();
  prune_uncontended_links(roomy,
                          [](std::int32_t) { return Rate::gbps(150); });
  for (const GraphJob& gj : roomy) EXPECT_TRUE(gj.links.empty());
  const auto labels = InterferenceGraph::components(roomy);
  for (std::size_t j = 0; j < roomy.size(); ++j) EXPECT_EQ(labels[j], j);
}

TEST(InterferenceGraph, PruneIsExactAtCapacityBoundary) {
  // Aggregate demand exactly equal to capacity is NOT contention: the link
  // serves the offered load at full rate, so it must be pruned.  One
  // epsilon above keeps it.
  std::vector<GraphJob> jobs = {{job("a", 100, 60, 25.0), {7}},
                                {job("b", 100, 60, 25.0), {7}}};
  std::vector<GraphJob> at = jobs;
  prune_uncontended_links(at, [](std::int32_t) { return Rate::gbps(50.0); });
  EXPECT_TRUE(at[0].links.empty());
  std::vector<GraphJob> above = jobs;
  prune_uncontended_links(above,
                          [](std::int32_t) { return Rate::gbps(49.9); });
  EXPECT_EQ(above[0].links, (std::vector<std::int32_t>{7}));
  EXPECT_EQ(above[1].links, (std::vector<std::int32_t>{7}));
}

TEST(InterferenceGraph, SolveMultiEntryPoint) {
  // A chain a-b-c over two links is compatible although the three jobs
  // would not fit on one common circle.
  const std::vector<GraphJob> jobs = {{job("a", 100, 60), {1}},
                                      {job("b", 100, 60), {1, 2}},
                                      {job("c", 100, 60), {2}}};
  std::vector<CommProfile> profiles;
  for (const GraphJob& gj : jobs) profiles.push_back(gj.profile);
  EXPECT_FALSE(CompatibilitySolver().solve(profiles).compatible);  // 1.2 > 1
  const GraphResult multi = InterferenceGraph().solve(jobs);
  EXPECT_TRUE(multi.compatible);
  EXPECT_TRUE(multi.proven);
  EXPECT_DOUBLE_EQ(multi.worst_violation, 0.0);
  ASSERT_EQ(multi.rotations.size(), 3u);
  expect_rotation_consistency(jobs, multi);
}

}  // namespace
}  // namespace ccml
