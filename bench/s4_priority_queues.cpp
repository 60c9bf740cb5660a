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

  TextTable table({"scheme", "J1 mean ms", "J2 mean ms", "note"});

  {
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kDcqcn;
    cfg.duration = Duration::seconds(seconds);
    const auto r = run_dumbbell_scenario({{"J1", dlrm}, {"J2", dlrm}}, cfg);
    table.add_row({"fair DCQCN", TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0),
                   "comm phases overlap"});
  }
  {
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kPriority;
    cfg.duration = Duration::seconds(seconds);
    std::vector<ScenarioJob> jobs = {{"J1", dlrm}, {"J2", dlrm}};
    jobs[0].priority = 0;  // unique priorities, arbitrary order
    jobs[1].priority = 1;
    const auto r = run_dumbbell_scenario(jobs, cfg);
    table.add_row({"priority queues", TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0),
                   "phases interleave"});
  }
  {
    // Scalability caveat from the paper: switches support few priority
    // levels.  With 3 compatible light jobs and only unique priorities the
    // interleaving still works.
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kPriority;
    cfg.duration = Duration::seconds(seconds);
    const auto light = ModelZoo::synthetic(
        "light", Duration::millis(700),
        Rate::gbps(42.5) * Duration::millis(300));
    std::vector<ScenarioJob> jobs = {{"J1", light}, {"J2", light},
                                     {"J3", light}};
    for (int i = 0; i < 3; ++i) jobs[i].priority = i;
    const auto r = run_dumbbell_scenario(jobs, cfg);
    table.add_row({"priority queues (3 jobs)",
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0),
                   "J3 " + TextTable::num(r.jobs[2].mean_ms, 0) + " ms"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: priority rows ~ solo (%0.f ms); fair row ~ "
              "%.0f ms.\n",
              dlrm.solo_iteration(goodput).to_millis(),
              dlrm.fwd_compute.to_millis() +
                  2 * transfer_time(dlrm.comm_bytes, goodput).to_millis());
  return 0;
}
