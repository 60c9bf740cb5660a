// Figure 4: two jobs with the same iteration time on overlaid circles.
// Aligned, their communication arcs collide (congestion); rotating one
// circle finds a position where the arcs are disjoint — the jobs are
// compatible.
#include <cstdio>

#include "bench/cli.h"
#include "core/solver.h"
#include "telemetry/plot.h"

using namespace ccml;

int main() {
  // Two jobs, period 100 ms: comm 40 ms each (fractions 0.4 + 0.4 < 1).
  const CommProfile j1 = CommProfile::single_phase(
      "J1", Duration::millis(100), Duration::millis(60), Rate::gbps(42.5));
  const CommProfile j2 = CommProfile::single_phase(
      "J2", Duration::millis(100), Duration::millis(60), Rate::gbps(42.5));

  std::printf("Figure 4: rotating overlaid circles to avoid congestion\n\n");

  std::printf("---- Fig 4a: aligned -> communication arcs collide ----\n");
  std::printf("%s", render_circle({j1.to_intervals(), j2.to_intervals()},
                                  {'1', '2'})
                        .c_str());
  const Duration overlap_aligned = CircularIntervalSet::overlap_length(
      j1.to_intervals(), j2.to_intervals());
  std::printf("overlap: %.0f ms of comm collide per iteration\n\n",
              overlap_aligned.to_millis());

  CompatibilitySolver solver;
  const std::vector<CommProfile> jobs = {j1, j2};
  const SolverResult r = solver.solve(jobs);
  // Same-period jobs: only the relative rotation matters, so express the
  // solution as "rotate J2, keep J1 fixed" like the paper's figure.
  const Duration rel = wrap_to_circle(r.rotations[1] - r.rotations[0],
                                      j2.period);
  std::printf("---- Fig 4b: J2 rotated by %.0f ms -> no collision ----\n",
              rel.to_millis());
  const auto rotated = j2.to_intervals().rotated(rel);
  std::printf("%s", render_circle({j1.to_intervals(), rotated}, {'1', '2'})
                        .c_str());
  const Duration overlap_rotated =
      CircularIntervalSet::overlap_length(j1.to_intervals(), rotated);
  std::printf("overlap after rotation: %.0f ms\n", overlap_rotated.to_millis());
  std::printf("solver verdict: %s\n",
              r.compatible ? "FULLY COMPATIBLE" : "incompatible");
  bench::Claims claims;
  claims.check("aligned, the communication arcs collide",
               !overlap_aligned.is_zero(), "no overlap");
  claims.check("the solver finds the pair fully compatible", r.compatible,
               "incompatible");
  claims.near("rotated, the arcs no longer collide (overlap 0 ms)",
              {overlap_rotated.to_millis()}, 0, 0);
  return claims.exit_code();
}
