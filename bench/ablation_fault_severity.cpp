// Ablation: fault severity vs recovery, across congestion-control policies.
//
// The paper's mechanisms (unfair CC, priorities, flow scheduling) are argued
// for steady state; a production cluster also sees link flaps and stragglers.
// This bench scripts a bottleneck outage of increasing duration into the §2
// dumbbell (2 x VGG16 under each policy) and reports, per (policy, outage),
// whether every job re-reached its baseline iteration cadence, how long
// reconvergence took, and how much communication goodput the disruption
// cost.  The grid fans out over SweepRunner worker threads; results are
// deterministic regardless of thread count.
#include <cstdio>
#include <vector>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "sim/sweep.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

struct Cell {
  PolicyKind policy;
  double outage_ms;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 20);
  const auto vgg = *ModelZoo::calibrated("VGG16", 1400);

  const PolicyKind policies[] = {
      PolicyKind::kMaxMinFair,  PolicyKind::kWfq,
      PolicyKind::kPriority, PolicyKind::kDcqcn,
      PolicyKind::kDcqcnAdaptive, PolicyKind::kTimely,
  };
  const double outages_ms[] = {50, 200, 1000, 3000};

  std::vector<Cell> grid;
  for (const PolicyKind p : policies) {
    for (const double o : outages_ms) grid.push_back({p, o});
  }

  SweepRunner pool;
  const auto results = pool.run(grid, [&](const Cell& cell, std::size_t) {
    ScenarioConfig cfg;
    cfg.policy = cell.policy;
    cfg.duration = Duration::seconds(seconds);
    cfg.faults.flap(TimePoint::origin() + Duration::seconds(seconds / 4),
                    Duration::from_millis_f(cell.outage_ms), "swL->swR");
    std::vector<ScenarioJob> jobs;
    ScenarioJob aggressive{"J1", vgg};
    aggressive.cc_timer = aggressive_knobs().timer;
    aggressive.cc_rai = aggressive_knobs().rai;
    ScenarioJob meek{"J2", vgg};
    meek.cc_timer = meek_knobs().timer;
    meek.cc_rai = meek_knobs().rai;
    jobs.push_back(aggressive);
    jobs.push_back(meek);
    return run_dumbbell_scenario(jobs, cfg);
  });

  std::printf("Ablation: bottleneck outage severity (2 x VGG16(1400), %d s, "
              "%u threads)\n\n",
              seconds, pool.thread_count());
  TextTable table({"policy", "outage ms", "converged", "reconverge ms",
                   "disrupted iters", "lost MB"});
  std::string unconverged, loss_flat;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const RecoveryReport& rec = *results[i].recovery;
    if (!rec.all_converged()) {
      unconverged += std::string(to_string(grid[i].policy)) + "/" +
                     TextTable::num(grid[i].outage_ms, 0) + " ";
    }
    std::size_t disrupted = 0;
    for (const JobRecovery& j : rec.jobs) disrupted += j.iterations_disrupted;
    table.add_row({to_string(grid[i].policy),
                   TextTable::num(grid[i].outage_ms, 0),
                   rec.all_converged() ? "yes" : "NO",
                   TextTable::num(rec.max_reconverge_ms(), 1),
                   std::to_string(disrupted),
                   TextTable::num(rec.total_goodput_lost_mb(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  // The grid lists each policy's outages shortest first.
  const std::size_t per_policy = std::size(outages_ms);
  for (std::size_t i = 0; i < grid.size(); i += per_policy) {
    if (results[i + per_policy - 1].recovery->total_goodput_lost_mb() <=
        results[i].recovery->total_goodput_lost_mb()) {
      loss_flat += std::string(to_string(grid[i].policy)) + " ";
    }
  }
  bench::Claims claims;
  claims.check("recovery is policy-agnostic: every cell regains its "
               "pre-fault cadence", unconverged.empty(), unconverged);
  claims.check("goodput lost scales with outage: 3 s costs more than 50 ms, "
               "every policy", loss_flat.empty(), loss_flat);
  return claims.exit_code();
}
