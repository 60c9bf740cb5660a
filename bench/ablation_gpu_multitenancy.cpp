// Ablation: GPU multi-tenancy constraints (paper §5).  When two jobs
// time-share a GPU, their compute phases must not overlap either; the
// solver supports this as additional constraints (SolverOptions::gpu_groups).
// This bench maps the feasibility region for two same-period jobs that share
// BOTH a GPU and a network link, and contrasts it with dedicated GPUs.
#include <cstdio>

#include "bench/cli.h"
#include "core/solver.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t comm_ms) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(period_ms - comm_ms),
                                   Rate::gbps(42.5));
}

}  // namespace

int main() {
  std::printf("Ablation: GPU multi-tenancy (paper 5).  Two jobs, period "
              "100 ms, sharing one link; rows/cols = comm fraction.\n\n");

  std::printf("dedicated GPUs ('#' compatible):        shared GPU:\n");
  const int steps = 9;
  SolverOptions dedicated;
  SolverOptions shared;
  shared.gpu_groups = {0, 0};
  shared.anneal_iterations = 500;
  CompatibilitySolver solve_dedicated(dedicated);
  CompatibilitySolver solve_shared(shared);

  std::printf("     ");
  for (int jf = 1; jf <= steps; ++jf) std::printf("%d", jf);
  std::printf("          ");
  for (int jf = 1; jf <= steps; ++jf) std::printf("%d", jf);
  std::printf("   (x10%%)\n");
  int dedicated_misses = 0, shared_misses = 0;
  for (int i = 1; i <= steps; ++i) {
    std::printf("%3d%% ", i * 10);
    std::string left, right;
    for (int j = 1; j <= steps; ++j) {
      const std::vector<CommProfile> pair = {job("a", 100, i * 10),
                                             job("b", 100, j * 10)};
      const bool dedicated_ok = solve_dedicated.solve(pair).compatible;
      const bool shared_ok = solve_shared.solve(pair).compatible;
      left += dedicated_ok ? '#' : '.';
      right += shared_ok ? '#' : '.';
      dedicated_misses += dedicated_ok != (i + j <= 10);
      shared_misses += shared_ok != (i + j == 10);
    }
    std::printf("%s     %3d%% %s\n", left.c_str(), i * 10, right.c_str());
  }

  std::printf("\n");

  // Mixed-period shared-GPU example.
  TextTable table({"case", "gpu", "verdict"});
  const std::vector<CommProfile> same = {job("a", 100, 60), job("b", 100, 40)};
  const std::vector<CommProfile> mismatch = {job("a", 100, 60),
                                             job("b", 150, 60)};
  table.add_row({"comm 60+40, period 100/100", "shared",
                 solve_shared.solve(same).compatible ? "compatible"
                                                     : "incompatible"});
  table.add_row({"comm 60+60, period 100/150", "shared",
                 solve_shared.solve(mismatch).compatible ? "compatible"
                                                         : "incompatible"});
  table.add_row({"comm 60+60, period 100/150", "dedicated",
                 solve_dedicated.solve(mismatch).compatible ? "compatible"
                                                            : "incompatible"});
  std::printf("%s\n", table.render().c_str());
  // A shared GPU adds compute_1 + compute_2 <= period, i.e.
  // (1-f1) + (1-f2) <= 1, which with f1 + f2 <= 1 forces the jobs into
  // perfectly complementary schedules.
  bench::Claims claims;
  claims.check("dedicated GPUs give the f1 + f2 <= 1 triangle",
               dedicated_misses == 0,
               std::to_string(dedicated_misses) + " cells off it");
  claims.check("a shared GPU leaves only the anti-diagonal f1 + f2 = 1",
               shared_misses == 0,
               std::to_string(shared_misses) + " cells off it");
  return claims.exit_code();
}
