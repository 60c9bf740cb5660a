// Figure 5: the unified circle for jobs with different iteration times.
// J1 (40 ms) and J2 (60 ms) are placed on a circle of perimeter
// LCM(40, 60) = 120 ms; J1 appears three times, J2 twice; rotating J1 finds
// a collision-free position (the paper rotates 30 degrees ccw = 10 ms).
#include <cstdio>

#include "bench/cli.h"
#include "core/solver.h"
#include "core/unified_circle.h"
#include "telemetry/plot.h"

using namespace ccml;

int main() {
  const CommProfile j1 = CommProfile::single_phase(
      "J1", Duration::millis(40), Duration::millis(34), Rate::gbps(42.5));
  const CommProfile j2 = CommProfile::single_phase(
      "J2", Duration::millis(60), Duration::millis(50), Rate::gbps(42.5));
  const std::vector<CommProfile> jobs = {j1, j2};
  const UnifiedCircle circle(jobs);

  std::printf("Figure 5: unified circle for iteration times 40 ms and 60 ms\n\n");
  std::printf("perimeter = LCM(40, 60) = %.0f ms; J1 repeats %lldx, "
              "J2 repeats %lldx\n\n",
              circle.perimeter().to_millis(),
              static_cast<long long>(circle.repetitions(0)),
              static_cast<long long>(circle.repetitions(1)));

  std::printf("---- Fig 5a/5b: each job on the unified circle ----\n");
  std::printf("%s\n",
              render_circle({circle.job_arcs(0, Duration::zero())}, {'1'})
                  .c_str());
  std::printf("%s\n",
              render_circle({circle.job_arcs(1, Duration::zero())}, {'2'})
                  .c_str());

  const std::vector<Duration> aligned = {Duration::zero(), Duration::zero()};
  std::printf("---- Fig 5c: overlaid, no rotation ----\n");
  std::printf("%s", render_circle({circle.job_arcs(0, Duration::zero()),
                                   circle.job_arcs(1, Duration::zero())},
                                  {'1', '2'})
                        .c_str());
  std::printf("overlap fraction: %.3f\n\n", circle.overlap_fraction(aligned));

  bench::Claims claims;
  claims.check("aligned, the colored areas collide",
               circle.overlap_fraction(aligned) > 0, "no overlap");
  CompatibilitySolver solver;
  const SolverResult r = solver.solve(jobs);
  claims.check("the solver finds a compatible rotation", r.compatible,
               "incompatible");
  if (!r.compatible) return claims.exit_code();
  const double degrees =
      360.0 * r.rotations[0].to_millis() / circle.perimeter().to_millis();
  std::printf("---- Fig 5d: J1 rotated %.0f ms (%.0f deg on the unified "
              "circle) -> compatible ----\n",
              r.rotations[0].to_millis(), degrees);
  const std::vector<Duration> rot = {r.rotations[0], r.rotations[1]};
  std::printf("%s", render_circle({circle.job_arcs(0, r.rotations[0]),
                                   circle.job_arcs(1, r.rotations[1])},
                                  {'1', '2'})
                        .c_str());
  std::printf("overlap fraction after rotation: %.3f\n",
              circle.overlap_fraction(rot));
  claims.near("rotated, the colored areas no longer collide",
              {circle.overlap_fraction(rot)}, 0, 0);
  // The paper's figure shows one such rotation; any collision-free one
  // serves, so the solver's need not be the paper's.
  const std::vector<Duration> paper = {Duration::millis(10), Duration::zero()};
  claims.near("the paper's 30-degree (10 ms) rotation of J1 clears them too",
              {circle.overlap_fraction(paper)}, 0, 0);
  return claims.exit_code();
}
