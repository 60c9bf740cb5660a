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

  const auto dcqcn_fair = run(PolicyKind::kDcqcn, Rate::zero(), Rate::zero(),
                              Duration::zero(), Duration::zero(), seconds);
  const auto dcqcn_unfair =
      run(PolicyKind::kDcqcn, aggressive_knobs().rai, meek_knobs().rai,
          aggressive_knobs().timer, meek_knobs().timer, seconds);
  const auto timely_fair = run(PolicyKind::kTimely, Rate::zero(), Rate::zero(),
                               Duration::zero(), Duration::zero(), seconds);
  const auto timely_unfair = run(PolicyKind::kTimely, Rate::mbps(40),
                                 Rate::mbps(5), Duration::zero(),
                                 Duration::zero(), seconds);

  TextTable table({"transport", "knobs", "J1 mean ms", "J2 mean ms"});
  const auto row = [&](const char* transport, const char* knobs,
                       const ScenarioResult& r) {
    table.add_row({transport, knobs, bench::mean_cell(r.jobs[0]),
                   bench::mean_cell(r.jobs[1])});
  };
  row("DCQCN (ECN-based)", "fair", dcqcn_fair);
  row("DCQCN (ECN-based)", "unfair T/R_AI", dcqcn_unfair);
  row("TIMELY (delay-based)", "fair", timely_fair);
  row("TIMELY (delay-based)", "unfair delta 40/5", timely_unfair);
  std::printf("%s\n", table.render().c_str());

  // The sliding mechanism does not depend on how the transport detects
  // congestion, only on a persistent aggressiveness asymmetry.
  bench::Claims claims;
  claims.near("DCQCN unfair T/R_AI: both jobs 1000 +- 40 ms",
              bench::mean_ms(dcqcn_unfair), 1000, 40);
  claims.within("TIMELY fair: the pair stays contended, above 1200 ms",
                bench::mean_ms(timely_fair), 1200, INFINITY);
  claims.near("TIMELY unfair delta 40/5: both jobs 1000 +- 60 ms",
              bench::mean_ms(timely_unfair), 1000, 60);
  return claims.exit_code();
}
