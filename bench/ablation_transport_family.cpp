// Ablation: is the unfairness payoff specific to DCQCN?  The paper's
// mechanism is transport-agnostic — any persistent aggressiveness asymmetry
// should slide compatible jobs apart.  This bench replays the Table-1 DLRM
// experiment on TIMELY (delay-based) with asymmetric additive steps.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

ScenarioResult run(PolicyKind policy, Rate delta1, Rate delta2,
                   Duration t1, Duration t2, int seconds) {
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::vector<ScenarioJob> jobs = {{"J1", dlrm}, {"J2", dlrm}};
  jobs[0].cc_rai = delta1;
  jobs[1].cc_rai = delta2;
  jobs[0].cc_timer = t1;
  jobs[1].cc_timer = t2;
  ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.duration = Duration::seconds(seconds);
  cfg.warmup_iterations = 10;
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 30);
  std::printf("Ablation: unfairness payoff across transport families "
              "(2 x DLRM(2000), solo 1000 ms)\n\n");

  TextTable table({"transport", "knobs", "J1 mean ms", "J2 mean ms"});
  {
    const auto r = run(PolicyKind::kDcqcn, Rate::zero(), Rate::zero(),
                       Duration::zero(), Duration::zero(), seconds);
    table.add_row({"DCQCN (ECN-based)", "fair",
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0)});
  }
  {
    const auto r = run(PolicyKind::kDcqcn, aggressive_knobs().rai,
                       meek_knobs().rai, aggressive_knobs().timer,
                       meek_knobs().timer, seconds);
    table.add_row({"DCQCN (ECN-based)", "unfair T/R_AI",
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0)});
  }
  {
    const auto r = run(PolicyKind::kTimely, Rate::zero(), Rate::zero(),
                       Duration::zero(), Duration::zero(), seconds);
    table.add_row({"TIMELY (delay-based)", "fair",
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0)});
  }
  {
    const auto r = run(PolicyKind::kTimely, Rate::mbps(40), Rate::mbps(5),
                       Duration::zero(), Duration::zero(), seconds);
    table.add_row({"TIMELY (delay-based)", "unfair delta 40/5",
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: on BOTH transport families the unfair row "
              "approaches the 1000 ms solo time for both jobs — the sliding "
              "mechanism does not depend on how the transport detects "
              "congestion, only on a persistent aggressiveness asymmetry.\n");
  return 0;
}
