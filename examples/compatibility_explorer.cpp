// Compatibility explorer: maps out *which* job pairs are compatible.
//
// Two sweeps over the geometric abstraction:
//   1. same-period pairs: comm fraction of J1 x comm fraction of J2 —
//      the classic f1 + f2 <= 1 triangle;
//   2. fixed comm fractions, varying period ratio — showing how replication
//      on the unified circle makes mismatched periods much harder to pack
//      (the subtle part of the paper's Fig. 5 story).
//
// Usage: compatibility_explorer [grid_steps]
#include <cstdio>
#include <vector>

#include "bench/cli.h"
#include "core/solver.h"

using namespace ccml;

namespace {

CommProfile job(const char* name, double period_ms, double comm_ms) {
  return CommProfile::single_phase(
      name, Duration::from_millis_f(period_ms),
      Duration::from_millis_f(period_ms - comm_ms), Rate::gbps(42.5));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[grid-steps]");
  const int steps = args.positive(1, 19);

  std::printf("== Sweep 1: same period (100 ms), comm fraction of each job ==\n");
  std::printf("   ('#' compatible, '.' incompatible; rows = J1 comm "
              "fraction, cols = J2)\n\n     ");
  for (int j = 1; j <= steps; ++j) {
    std::printf("%c", j % 5 == 0 ? '|' : ' ');
  }
  std::printf("\n");
  CompatibilitySolver solver;
  for (int i = 1; i <= steps; ++i) {
    const double f1 = static_cast<double>(i) / (steps + 1);
    std::printf("%4.2f ", f1);
    for (int j = 1; j <= steps; ++j) {
      const double f2 = static_cast<double>(j) / (steps + 1);
      const std::vector<CommProfile> pair = {job("a", 100, f1 * 100),
                                             job("b", 100, f2 * 100)};
      std::printf("%c", solver.solve(pair).compatible ? '#' : '.');
    }
    std::printf("\n");
  }
  std::printf("\nexpected: the f1 + f2 <= 1 triangle.\n\n");

  std::printf("== Sweep 2: comm fraction 0.25 each, period of J2 varies "
              "(J1 fixed at 60 ms) ==\n\n");
  std::printf("  %-14s %-12s %-12s %s\n", "J2 period", "unified", "verdict",
              "residual overlap");
  for (const double p2 : {30.0, 40.0, 45.0, 60.0, 75.0, 80.0, 90.0, 100.0,
                          120.0, 150.0, 180.0}) {
    const std::vector<CommProfile> pair = {job("a", 60, 15),
                                           job("b", p2, p2 * 0.25)};
    const UnifiedCircle circle(pair);
    const SolverResult r = solver.solve(pair);
    std::printf("  %-14.0f %-12.0f %-12s %.3f\n", p2,
                circle.perimeter().to_millis(),
                r.compatible ? "compatible" : "incompatible",
                r.violation_fraction);
  }
  std::printf("\nexpected: harmonic ratios (30, 60, 120, 180) pack easily; "
              "awkward ratios (45, 75, 90, ...) often fail even at a light "
              "0.25 + 0.25 load because each job's comm phases replicate all "
              "around the unified circle.\n\n");

  std::printf("== Sweep 3: three identical jobs, comm fraction threshold ==\n\n");
  for (const double f : {0.20, 0.25, 0.30, 0.33, 0.34, 0.40}) {
    const std::vector<CommProfile> trio = {
        job("a", 90, f * 90), job("b", 90, f * 90), job("c", 90, f * 90)};
    const SolverResult r = solver.solve(trio);
    std::printf("  comm fraction %.2f x 3 -> %s\n", f,
                r.compatible ? "compatible" : "incompatible");
  }
  std::printf("\nexpected: threshold at 1/3.\n");
  return 0;
}
