// Ablation: solver sector granularity.  The paper's formulation discretizes
// the circle into sectors; this sweep shows verdict stability and runtime as
// the sector count varies, on an easy, a tight, and an infeasible instance.
#include <chrono>
#include <cstdio>

#include "bench/cli.h"
#include "core/solver.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(42.5));
}

}  // namespace

int main() {
  std::printf("Ablation: sector count vs solver verdict and runtime\n\n");

  struct Instance {
    const char* label;
    std::vector<CommProfile> jobs;
    const char* truth;
  };
  const std::vector<Instance> instances = {
      {"easy: 2 jobs, comm 0.3 + 0.3",
       {job("a", 1000, 700), job("b", 1000, 700)},
       "compatible"},
      {"tight: 2 jobs, comm 0.5 + 0.5 (exact fit)",
       {job("a", 1000, 500), job("b", 1000, 500)},
       "compatible"},
      {"tight: 3 jobs, mixed periods",
       {job("a", 330, 270), job("b", 330, 270), job("c", 165, 163)},
       "compatible"},
      {"infeasible: 2 jobs, comm 0.7 + 0.7",
       {job("a", 1000, 300), job("b", 1000, 300)},
       "incompatible"},
  };

  TextTable table({"instance", "sectors", "verdict", "proven", "nodes",
                   "time (ms)"});
  std::string unstable;
  for (const auto& inst : instances) {
    for (const int sectors : {36, 90, 180, 360, 720, 1440}) {
      SolverOptions opts;
      opts.sectors = sectors;
      opts.anneal_iterations = 2000;
      CompatibilitySolver solver(opts);
      const auto t0 = std::chrono::steady_clock::now();
      const SolverResult r = solver.solve(inst.jobs);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const char* verdict = r.compatible ? "compatible" : "incompatible";
      if (std::string(verdict) != inst.truth) {
        unstable += std::string(inst.label) + " @" + std::to_string(sectors) +
                    "; ";
      }
      table.add_row({sectors == 36 ? inst.label : "",
                     std::to_string(sectors),
                     verdict, r.proven ? "yes" : "no",
                     std::to_string(r.nodes_explored),
                     TextTable::num(ms, 2)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: runtime grows with sector count (wall time, not "
              "checked).\n");
  bench::Claims claims;
  // Contact rotations catch exact fits even at coarse grids.
  claims.check("verdicts stable across granularities: every sector count "
               "gives each instance's true verdict", unstable.empty(),
               unstable);
  return claims.exit_code();
}
