// Ablation: multi-phase (pipeline-parallel style) communication patterns.
//
// The geometric abstraction covers jobs with several comm arcs per
// iteration.  Two questions:
//   1. does burst granularity change compatibility?  (Yes: a job whose
//      partner leaves two small gaps can only fit if its own communication
//      is split into bursts that fit the gaps.)
//   2. does the unfairness sliding effect still materialize for multi-burst
//      jobs in the fluid simulation?
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

// J1: two comm bursts of 27.5 ms in a 200 ms iteration (fraction 0.275),
// leaving two free gaps of 45 ms.
CommProfile partner() {
  CommProfile p;
  p.name = "J1";
  p.period = Duration::millis(200);
  p.demand = Rate::gbps(42.5);
  // Two bursts of 27.5 ms at [45, 72.5) and [145, 172.5).
  p.arcs = {Arc{Duration::millis(45), Duration::from_millis_f(27.5)},
            Arc{Duration::millis(145), Duration::from_millis_f(27.5)}};
  return p;
}

// J2: total comm 80 ms in a 200 ms iteration, split into `bursts` equal
// pieces separated by equal compute chunks.
CommProfile seeker(int bursts) {
  CommProfile p;
  p.name = "J2x" + std::to_string(bursts);
  p.period = Duration::millis(200);
  p.demand = Rate::gbps(42.5);
  const double burst_ms = 80.0 / bursts;
  const double compute_ms = 120.0 / bursts;
  double cursor = compute_ms;
  for (int i = 0; i < bursts; ++i) {
    p.arcs.push_back(Arc{Duration::from_millis_f(cursor),
                         Duration::from_millis_f(burst_ms)});
    cursor += burst_ms + compute_ms;
  }
  return p;
}

JobProfile seeker_job(int bursts) {
  std::vector<PhaseSpec> phases;
  const double burst_ms = 80.0 / bursts;
  const double compute_ms = 120.0 / bursts;
  for (int i = 0; i < bursts; ++i) {
    phases.push_back(PhaseSpec{
        Duration::from_millis_f(compute_ms),
        Rate::gbps(42.5) * Duration::from_millis_f(burst_ms)});
  }
  return ModelZoo::synthetic_phased("J2", std::move(phases));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 25);
  std::printf("Ablation: burst granularity vs compatibility "
              "(J1: 2 x 27.5 ms bursts per 200 ms; J2: 80 ms total comm "
              "split into k bursts)\n\n");

  TextTable table({"J2 bursts", "solver verdict", "residual overlap"});
  CompatibilitySolver solver;
  // k=1 cannot fit (J1 leaves two 72.5 ms gaps and an 80 ms burst fits in
  // neither); k=2 and k=4 split into pieces that fit; k=8 fails again: with
  // a burst every 25 ms, some burst always lands inside one of J1's 27.5 ms
  // busy blocks.  Granularity interacts with the partner's structure in
  // both directions.
  std::string verdicts;
  for (const int k : {1, 2, 4, 8}) {
    const std::vector<CommProfile> pair = {partner(), seeker(k)};
    const SolverResult r = solver.solve(pair);
    table.add_row({std::to_string(k),
                   r.compatible ? "compatible" : "incompatible",
                   TextTable::num(r.violation_fraction, 3)});
    verdicts += r.compatible ? 'y' : 'n';
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Sliding with multi-burst jobs under unfair DCQCN "
              "(2 identical 2-burst jobs, comm fraction 0.4):\n\n");
  TextTable dyn({"scenario", "J1 mean ms", "J2 mean ms"});
  ScenarioResult runs[2];
  for (const bool unfair : {false, true}) {
    std::vector<ScenarioJob> jobs = {{"J1", seeker_job(2)},
                                     {"J2", seeker_job(2)}};
    if (unfair) {
      jobs[0].cc_timer = aggressive_knobs().timer;
      jobs[0].cc_rai = aggressive_knobs().rai;
      jobs[1].cc_timer = meek_knobs().timer;
      jobs[1].cc_rai = meek_knobs().rai;
    }
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kDcqcn;
    cfg.duration = Duration::seconds(seconds);
    cfg.warmup_iterations = 10;
    const auto r = run_dumbbell_scenario(jobs, cfg);
    dyn.add_row({unfair ? "unfair DCQCN" : "fair DCQCN",
                 bench::mean_cell(r.jobs[0]),
                 bench::mean_cell(r.jobs[1])});
    runs[unfair] = r;
  }
  std::printf("%s\n", dyn.render().c_str());
  const auto& [fair, unfair] = runs;
  bench::Claims claims;
  claims.check("only k = 2 and k = 4 bursts fit the partner's gaps",
               verdicts == "nyyn", "compatible per k=1,2,4,8: " + verdicts);
  claims.near("fair DCQCN: both bursts collide, ~280 ms (5%)",
              bench::mean_ms(fair), 280, 0.05 * 280);
  claims.near("unfair DCQCN: both jobs at the ~200 ms solo time (5%)",
              bench::mean_ms(unfair), 200, 0.05 * 200);
  return claims.exit_code();
}
