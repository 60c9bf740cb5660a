// Section 4, direction (ii): priority queues on switches.  Jobs sharing a
// link get unique (arbitrary) priorities; the switch serves them strictly by
// priority, mimicking the desirable side effect of unfairness without any
// congestion-control changes.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 30);
  std::printf("Section 4(ii): unique per-job switch priorities "
              "(strict priority queues)\n\n");

  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  const Rate goodput = scenario_goodput();
  std::printf("workload: DLRM(2000) x 2 (compatible); solo %.0f ms\n\n",
              dlrm.solo_iteration(goodput).to_millis());

  const auto run = [&](PolicyKind policy,
                       const std::vector<ScenarioJob>& jobs) {
    ScenarioConfig cfg;
    cfg.policy = policy;
    cfg.duration = Duration::seconds(seconds);
    return run_dumbbell_scenario(jobs, cfg);
  };
  const auto fair = run(PolicyKind::kDcqcn, {{"J1", dlrm}, {"J2", dlrm}});
  std::vector<ScenarioJob> pair = {{"J1", dlrm}, {"J2", dlrm}};
  pair[0].priority = 0;  // unique priorities, arbitrary order
  pair[1].priority = 1;
  const auto prio = run(PolicyKind::kPriority, pair);
  // Scalability caveat from the paper: switches support few priority
  // levels.  With 3 compatible light jobs and only unique priorities the
  // interleaving still works.
  const auto light = ModelZoo::synthetic(
      "light", Duration::millis(700), Rate::gbps(42.5) * Duration::millis(300));
  std::vector<ScenarioJob> three = {
      {"J1", light}, {"J2", light}, {"J3", light}};
  for (int i = 0; i < 3; ++i) three[i].priority = i;
  const auto prio3 = run(PolicyKind::kPriority, three);

  TextTable table({"scheme", "J1 mean ms", "J2 mean ms", "note"});
  table.add_row({"fair DCQCN", bench::mean_cell(fair.jobs[0]),
                 bench::mean_cell(fair.jobs[1]),
                 "comm phases overlap"});
  table.add_row({"priority queues", bench::mean_cell(prio.jobs[0]),
                 bench::mean_cell(prio.jobs[1]), "phases interleave"});
  table.add_row({"priority queues (3 jobs)",
                 bench::mean_cell(prio3.jobs[0]),
                 bench::mean_cell(prio3.jobs[1]),
                 "J3 " + bench::mean_cell(prio3.jobs[2]) + " ms"});
  std::printf("%s\n", table.render().c_str());

  bench::Claims claims;
  claims.near("fair DCQCN: both jobs at the 1300 +- 40 ms plateau",
              bench::mean_ms(fair), 1300, 40);
  claims.near("priority queues: both jobs 1000 +- 30 ms (solo)",
              bench::mean_ms(prio), 1000, 30);
  claims.near("priority queues (3 jobs): all within 5% of the 1000 ms solo",
              bench::mean_ms(prio3), 1000, 0.05 * 1000);
  return claims.exit_code();
}
