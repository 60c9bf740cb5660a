// Ablation: how much unfairness is enough?  Sweeps the aggressiveness gap
// between two compatible DLRM jobs — from perfectly fair (identical knobs)
// to strongly asymmetric — and reports the mean iteration time of both.
// The sliding effect needs *some* persistent asymmetry to break the
// symmetric overlap equilibrium; beyond that, more unfairness buys nothing.
#include <algorithm>
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "sim/sweep.h"
#include "telemetry/table.h"

using namespace ccml;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 30);
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::printf("Ablation: degree of unfairness vs payoff "
              "(2 x DLRM(2000), solo 1000 ms)\n\n");

  struct Step {
    const char* label;
    Duration t1, t2;
    Rate r1, r2;
  };
  const Step steps[] = {
      {"none (T 125/125)", Duration::micros(125), Duration::micros(125),
       Rate::mbps(40), Rate::mbps(40)},
      {"paper (T 100/125)", Duration::micros(100), Duration::micros(125),
       Rate::mbps(40), Rate::mbps(40)},
      {"mild (T 80/160)", Duration::micros(80), Duration::micros(160),
       Rate::mbps(40), Rate::mbps(40)},
      {"strong (T 55/300)", Duration::micros(55), Duration::micros(300),
       Rate::mbps(40), Rate::mbps(40)},
      {"strong + R_AI (80/40)", Duration::micros(55), Duration::micros(300),
       Rate::mbps(80), Rate::mbps(40)},
  };

  // The grid points are independent simulations: fan them across cores and
  // fold the (order-sensitive) baseline comparison over the input-ordered
  // results afterwards.
  SweepRunner pool;
  const std::vector<Step> grid(std::begin(steps), std::end(steps));
  const auto results = pool.run(grid, [&](const Step& s, std::size_t) {
    std::vector<ScenarioJob> jobs = {{"J1", dlrm}, {"J2", dlrm}};
    jobs[0].cc_timer = s.t1;
    jobs[0].cc_rai = s.r1;
    jobs[1].cc_timer = s.t2;
    jobs[1].cc_rai = s.r2;
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kDcqcn;
    cfg.duration = Duration::seconds(seconds);
    cfg.warmup_iterations = 10;
    return run_dumbbell_scenario(jobs, cfg);
  });

  TextTable table({"unfairness", "J1 mean ms", "J2 mean ms", "both sped up?"});
  double fair_baseline = 0, asymmetric_worst = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& r = results[i];
    if (fair_baseline == 0) fair_baseline = r.jobs[0].mean_ms;
    const bool both = r.jobs[0].mean_ms < fair_baseline * 0.98 &&
                      r.jobs[1].mean_ms < fair_baseline * 0.98;
    table.add_row({grid[i].label, bench::mean_cell(r.jobs[0]),
                   bench::mean_cell(r.jobs[1]),
                   fair_baseline == r.jobs[0].mean_ms ? "baseline"
                                                      : (both ? "yes" : "no")});
    if (i > 0) {
      asymmetric_worst = std::max(
          {asymmetric_worst, r.jobs[0].mean_ms, r.jobs[1].mean_ms});
    }
  }
  std::printf("%s\n", table.render().c_str());
  bench::Claims claims;
  claims.near("identical knobs stay at the ~1300 ms fair plateau (5%)",
              bench::mean_ms(results[0]), 1300, 0.05 * 1300);
  claims.near("any persistent asymmetry slides both jobs to ~1000 ms (5%)",
              {asymmetric_worst}, 1000, 0.05 * 1000);
  return claims.exit_code();
}
