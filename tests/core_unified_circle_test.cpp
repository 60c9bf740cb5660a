#include "core/unified_circle.h"

#include <gtest/gtest.h>

#include <string>

#include "core/solver.h"

namespace ccml {
namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms, double demand_gbps = 42.5) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(demand_gbps));
}

TEST(UnifiedCircle, PerimeterIsLcm) {
  // Paper Fig. 5: periods 40 ms and 60 ms => unified perimeter 120 ms.
  const std::vector<CommProfile> jobs = {job("J1", 40, 25), job("J2", 60, 40)};
  const UnifiedCircle circle(jobs);
  EXPECT_EQ(circle.perimeter().to_millis(), 120.0);
  EXPECT_TRUE(circle.exact());
  EXPECT_EQ(circle.repetitions(0), 3);  // J1 appears 3x (Fig. 5a)
  EXPECT_EQ(circle.repetitions(1), 2);  // J2 appears 2x (Fig. 5b)
}

TEST(UnifiedCircle, SameperiodJobsKeepPerimeter) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 70)};
  const UnifiedCircle circle(jobs);
  EXPECT_EQ(circle.perimeter().to_millis(), 100.0);
  EXPECT_EQ(circle.repetitions(0), 1);
}

TEST(UnifiedCircle, JobArcsReplicateAroundCircle) {
  const std::vector<CommProfile> jobs = {job("J1", 40, 25), job("J2", 60, 40)};
  const UnifiedCircle circle(jobs);
  const auto arcs = circle.job_arcs(0, Duration::zero());
  // J1 communicates on [25,40) of each of its 3 iterations.
  EXPECT_EQ(arcs.covered_length().to_millis(), 45.0);
  EXPECT_TRUE(arcs.contains(Duration::millis(30)));
  EXPECT_TRUE(arcs.contains(Duration::millis(70)));
  EXPECT_TRUE(arcs.contains(Duration::millis(110)));
  EXPECT_FALSE(arcs.contains(Duration::millis(50)));
}

TEST(UnifiedCircle, RotationShiftsArcs) {
  const std::vector<CommProfile> jobs = {job("J1", 40, 25), job("J2", 60, 40)};
  const UnifiedCircle circle(jobs);
  const auto arcs = circle.job_arcs(0, Duration::millis(5));
  EXPECT_TRUE(arcs.contains(Duration::millis(35)));
  EXPECT_FALSE(arcs.contains(Duration::millis(25)));
}

TEST(UnifiedCircle, OverlapFractionZeroWhenSeparated) {
  // Two jobs, period 100: comm [60,100) and comm [60,100) rotated by 40
  // lands at [0,40) — wait, rotated +40 => [100,140)=[0,40). Disjoint from
  // [60,100).
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 60)};
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> aligned = {Duration::zero(), Duration::zero()};
  EXPECT_NEAR(circle.overlap_fraction(aligned), 0.4, 1e-9);
  EXPECT_EQ(circle.max_concurrency(aligned), 2);

  const std::vector<Duration> rotated = {Duration::zero(),
                                         Duration::millis(40)};
  EXPECT_NEAR(circle.overlap_fraction(rotated), 0.0, 1e-9);
  EXPECT_EQ(circle.max_concurrency(rotated), 1);
}

TEST(UnifiedCircle, Fig5RotationSeparatesJobs) {
  // The paper rotates J1 by 30 degrees ccw on the 120 ms circle = 10 ms.
  // Our numbers differ from the illustration, but for light jobs (J1 comm
  // 6 ms per 40 ms period, J2 comm 10 ms per 60 ms period) a separating
  // rotation must exist.
  const std::vector<CommProfile> jobs = {job("J1", 40, 34), job("J2", 60, 50)};
  const UnifiedCircle circle(jobs);
  bool found = false;
  for (std::int64_t r = 0; r < 40 && !found; ++r) {
    const std::vector<Duration> rot = {Duration::millis(r), Duration::zero()};
    if (circle.overlap_fraction(rot) == 0.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(UnifiedCircle, PeakDemandSumsOverlappingJobs) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60, 20.0),
                                         job("b", 100, 60, 15.0)};
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> aligned = {Duration::zero(), Duration::zero()};
  EXPECT_NEAR(circle.peak_demand(aligned).to_gbps(), 35.0, 1e-9);
  const std::vector<Duration> rotated = {Duration::zero(),
                                         Duration::millis(40)};
  EXPECT_NEAR(circle.peak_demand(rotated).to_gbps(), 20.0, 1e-9);
}

TEST(UnifiedCircle, InexactWhenLcmExceedsCap) {
  UnifiedCircleOptions opts;
  opts.perimeter_cap = Duration::millis(500);
  const std::vector<CommProfile> jobs = {job("a", 997, 500),
                                         job("b", 1009, 500)};
  const UnifiedCircle circle(jobs, opts);
  EXPECT_EQ(circle.perimeter().to_millis(), 500.0);
  EXPECT_FALSE(circle.exact());
}

TEST(UnifiedCircle, SolverDegradesGracefullyOnClampedPerimeter) {
  // On a clamped circle the jobs only approximately repeat, so whatever the
  // solver concludes is best-effort: it must surface the clamp
  // (circle_exact = false), never claim a *proven* verdict, and still
  // return well-formed rotations — degraded, not silently wrong.
  SolverOptions opts;
  opts.circle.perimeter_cap = Duration::millis(500);
  const std::vector<CommProfile> jobs = {job("a", 997, 700),
                                         job("b", 1009, 710)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  EXPECT_FALSE(r.circle_exact);
  EXPECT_FALSE(r.proven);
  EXPECT_GE(r.violation_fraction, 0.0);
  EXPECT_LE(r.violation_fraction, 1.0);
  ASSERT_EQ(r.rotations.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_GE(r.rotations[j], Duration::zero());
    EXPECT_LT(r.rotations[j], jobs[j].period);
  }

  // The same inputs with a cap above the true LCM (997 * 1009 ms ≈ 1006 s;
  // the periods are coprime) keep the exact flag — the degradation is
  // attributable to the clamp alone.
  SolverOptions roomy;
  roomy.circle.perimeter_cap = Duration::seconds(1100);
  roomy.search_budget = 1'000;  // the huge circle is expensive; cap the DFS
  roomy.anneal_iterations = 100;
  const SolverResult exact = CompatibilitySolver(roomy).solve(jobs);
  EXPECT_TRUE(exact.circle_exact);
}

TEST(UnifiedCircle, QuantizationSnapsNoisyPeriods) {
  UnifiedCircleOptions opts;
  opts.quantum = Duration::millis(1);
  std::vector<CommProfile> jobs = {job("a", 40, 25), job("b", 60, 40)};
  jobs[0].period = Duration::from_millis_f(40.3);  // noisy measurement
  const UnifiedCircle circle(jobs, opts);
  EXPECT_EQ(circle.perimeter().to_millis(), 120.0);
}

TEST(UnifiedCircle, ManyCoprimePeriodsSaturateToCap) {
  // Nine pairwise-coprime (prime) periods: the true LCM (their product,
  // ~3.7e10 ms) would overflow the int64 nanosecond accumulator if chased
  // to the end, so the perimeter must land exactly on the cap — never
  // overflow, never exceed it — and the circle must admit approximation.
  const std::int64_t primes[] = {11, 13, 17, 19, 23, 29, 31, 37, 41};
  std::vector<CommProfile> jobs;
  for (const std::int64_t p : primes) {
    std::string name = "p";
    name += std::to_string(p);
    jobs.push_back(job(name.c_str(), p, p / 2));
  }
  UnifiedCircleOptions opts;
  opts.perimeter_cap = Duration::seconds(30);
  const UnifiedCircle circle(jobs, opts);
  EXPECT_EQ(circle.perimeter(), opts.perimeter_cap);
  EXPECT_FALSE(circle.exact());
  // Every job still gets well-formed arcs covering <= its comm share.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto arcs = circle.job_arcs(j, Duration::zero());
    EXPECT_GT(arcs.covered_length(), Duration::zero());
    EXPECT_LE(arcs.covered_length(), circle.perimeter());
  }
}

TEST(UnifiedCircle, ComputeOnlyJobHasNoArcs) {
  // compute == period means no communication: single_phase emits NO arc
  // (an explicit zero-length arc would be invalid), and on the circle the
  // job occupies nothing — it can never overlap anyone.
  const std::vector<CommProfile> jobs = {job("busy", 100, 60),
                                         job("silent", 100, 100)};
  ASSERT_TRUE(jobs[1].arcs.empty());
  ASSERT_TRUE(jobs[1].valid());
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> aligned = {Duration::zero(), Duration::zero()};
  EXPECT_EQ(circle.job_arcs(1, Duration::zero()).covered_length(),
            Duration::zero());
  EXPECT_NEAR(circle.overlap_fraction(aligned), 0.0, 1e-9);
  EXPECT_EQ(circle.max_concurrency(aligned), 1);

  // An explicitly zero-length arc is rejected by validity, not silently
  // folded into the circle.
  CommProfile degenerate = jobs[0];
  degenerate.arcs.push_back(Arc{Duration::millis(10), Duration::zero()});
  EXPECT_FALSE(degenerate.valid());
}

TEST(UnifiedCircle, RepetitionsCountPartialLapsWhenInexact) {
  // On a clamped circle a job's period no longer divides the perimeter:
  // repetitions() must count the final PARTIAL appearance (ceil, not
  // floor), so job_arcs covers the whole circle rather than leaving an
  // untiled gap at the seam.
  UnifiedCircleOptions opts;
  opts.perimeter_cap = Duration::millis(100);
  const std::vector<CommProfile> jobs = {job("a", 11, 5), job("b", 13, 6)};
  const UnifiedCircle circle(jobs, opts);
  ASSERT_FALSE(circle.exact());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::int64_t reps = circle.repetitions(j);
    const std::int64_t p_ns = jobs[j].period.ns();
    EXPECT_GE(reps * p_ns, circle.perimeter().ns())
        << "repetitions must tile the full perimeter";
    EXPECT_LT((reps - 1) * p_ns, circle.perimeter().ns())
        << "repetitions must not over-tile by a whole lap";
  }
  // The exact case is the degenerate ceil: reps * period == perimeter.
  const std::vector<CommProfile> even = {job("a", 10, 5), job("b", 20, 10)};
  const UnifiedCircle round(even);
  ASSERT_TRUE(round.exact());
  EXPECT_EQ(round.repetitions(0) * even[0].period.ns(), round.perimeter().ns());
}

TEST(UnifiedCircle, ThreeJobsConcurrency) {
  const std::vector<CommProfile> jobs = {job("a", 90, 60), job("b", 90, 60),
                                         job("c", 90, 60)};
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> aligned(3, Duration::zero());
  EXPECT_EQ(circle.max_concurrency(aligned), 3);
  const std::vector<Duration> spread = {Duration::zero(), Duration::millis(30),
                                        Duration::millis(60)};
  EXPECT_EQ(circle.max_concurrency(spread), 1);
  EXPECT_NEAR(circle.overlap_fraction(spread), 0.0, 1e-9);
}

}  // namespace
}  // namespace ccml
