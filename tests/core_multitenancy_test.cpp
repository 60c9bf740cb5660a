// GPU multi-tenancy constraints (paper §5): jobs sharing a GPU must not
// overlap their compute phases either.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/solver.h"

namespace ccml {
namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(42.5));
}

TEST(MultiTenancy, DedicatedGpusUnchanged) {
  SolverOptions opts;
  opts.gpu_groups = {-1, -1};
  const std::vector<CommProfile> jobs = {job("a", 100, 70), job("b", 100, 70)};
  EXPECT_TRUE(CompatibilitySolver(opts).solve(jobs).compatible);
}

TEST(MultiTenancy, SharedGpuExactFit) {
  // Both jobs: 50 ms compute + 50 ms comm on a 100 ms circle, sharing a GPU
  // and a link: the only valid layout alternates (compute A | compute B)
  // while the other communicates.
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  const std::vector<CommProfile> jobs = {job("a", 100, 50), job("b", 100, 50)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  ASSERT_TRUE(r.compatible);
  // Verify both constraints explicitly.
  const UnifiedCircle circle(jobs);
  EXPECT_NEAR(circle.overlap_fraction(r.rotations), 0.0, 1e-12);
  // Compute overlap: complements must also be disjoint.
  CircularIntervalSet ca(Duration::millis(100)), cb(Duration::millis(100));
  ca.add(Arc{r.rotations[0], Duration::millis(50)});
  cb.add(Arc{r.rotations[1], Duration::millis(50)});
  EXPECT_FALSE(CircularIntervalSet::intersects(ca, cb));
}

TEST(MultiTenancy, SharedGpuOverloadedInfeasible) {
  // Compute 70 + 70 > 100: cannot time-share the GPU no matter the comm.
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  opts.anneal_iterations = 2000;
  const std::vector<CommProfile> jobs = {job("a", 100, 70), job("b", 100, 70)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  EXPECT_FALSE(r.compatible);
}

TEST(MultiTenancy, SharedGpuAsymmetricExactFit) {
  // GPU-busy time is everything outside the comm arcs (training jobs are
  // never idle), so two same-period jobs sharing GPU *and* link are feasible
  // exactly when compute_a + compute_b = comm_a + comm_b = period.
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 40)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  ASSERT_TRUE(r.compatible);
  CircularIntervalSet ca(Duration::millis(100)), cb(Duration::millis(100));
  ca.add(Arc{r.rotations[0], Duration::millis(60)});
  cb.add(Arc{r.rotations[1], Duration::millis(40)});
  EXPECT_FALSE(CircularIntervalSet::intersects(ca, cb));
}

TEST(MultiTenancy, SharedGpuUnderloadedGpuStillInfeasibleOnLink) {
  // Compute 30 + 30 fits the GPU, but comm 70 + 70 cannot fit the link.
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  opts.anneal_iterations = 1000;
  const std::vector<CommProfile> jobs = {job("a", 100, 30), job("b", 100, 30)};
  EXPECT_FALSE(CompatibilitySolver(opts).solve(jobs).compatible);
}

TEST(MultiTenancy, DifferentGroupsDoNotInterfere) {
  // Same heavy-compute jobs as the infeasible case, but on different GPUs:
  // only the comm constraint remains, and 30 + 30 <= 100 fits.
  SolverOptions opts;
  opts.gpu_groups = {0, 1};
  const std::vector<CommProfile> jobs = {job("a", 100, 70), job("b", 100, 70)};
  EXPECT_TRUE(CompatibilitySolver(opts).solve(jobs).compatible);
}

TEST(MultiTenancy, BandwidthModeRefusesSharedGpus) {
  // The bandwidth sector search ignores compute phases, so it would prove a
  // GPU-sharing group compatible while both jobs compute at once.
  SolverOptions opts;
  opts.mode = SolverOptions::Mode::kBandwidth;
  opts.link_capacity = Rate::gbps(50);
  opts.gpu_groups = {0, 0};
  try {
    CompatibilitySolver solver(opts);
    FAIL() << "bandwidth mode accepted shared GPU groups";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gpu_groups"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bandwidth mode"), std::string::npos);
  }
  // Dedicated GPUs leave nothing to refuse.
  opts.gpu_groups = {-1, -1};
  EXPECT_NO_THROW(CompatibilitySolver{opts});
}

TEST(MultiTenancy, InfeasibleReportsGpuViolation) {
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  opts.anneal_iterations = 1000;
  const std::vector<CommProfile> jobs = {job("a", 100, 70), job("b", 100, 70)};
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  ASSERT_FALSE(r.compatible);
  // 70 + 70 compute on a 100 ms circle: at least 40% must collide.
  EXPECT_GE(r.violation_fraction, 0.35);
}

}  // namespace
}  // namespace ccml
