// Ablation: fabric oversubscription.  The paper's testbed has a 1:1 fabric;
// production clusters often run 2:1 or 4:1.  Oversubscription lowers the
// rate a spanning job's communication phase can achieve, stretching its
// comm arcs — which changes both its circle abstraction and how much a
// partner can interleave.  This sweep runs two compatible-at-1:1 jobs whose
// rings cross an oversubscribed bottleneck and measures fair vs unfair
// DCQCN at each ratio.
#include <algorithm>
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "sim/sweep.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

// Jobs traverse a dumbbell whose bottleneck is the "fabric"; the NICs stay
// at 50 Gbps while the bottleneck shrinks with the oversubscription ratio.
ScenarioResult run(double fabric_gbps, bool unfair, int seconds) {
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::vector<ScenarioJob> jobs = {{"J1", dlrm}, {"J2", dlrm}};
  if (unfair) {
    jobs[0].cc_timer = aggressive_knobs().timer;
    jobs[0].cc_rai = aggressive_knobs().rai;
    jobs[1].cc_timer = meek_knobs().timer;
    jobs[1].cc_rai = meek_knobs().rai;
  }
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.bottleneck = Rate::gbps(fabric_gbps);
  cfg.duration = Duration::seconds(seconds);
  cfg.warmup_iterations = 3;
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 30);
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::printf("Ablation: fabric oversubscription (2 x DLRM(2000), 50 Gbps "
              "NICs)\n\n");

  // The fair/unfair simulations per ratio dominate the runtime and are
  // independent; sweep them in parallel.  The solver check is cheap and the
  // shared solver instance stays on this thread.
  const std::vector<double> ratios = {1.0, 1.5, 2.0, 3.0, 4.0};
  struct Point {
    ScenarioResult fair, unfair;
  };
  SweepRunner pool;
  const auto results = pool.run(ratios, [&](double ratio, std::size_t) {
    const double fabric = 50.0 / ratio;
    return Point{run(fabric, false, seconds), run(fabric, true, seconds)};
  });

  TextTable table({"oversub", "fabric", "solo ms", "comm fraction",
                   "fair J1/J2", "unfair J1/J2", "solver"});
  CompatibilitySolver solver;
  std::string verdict_misses, recovery_misses, redistribution_misses;
  std::vector<double> fractions;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const double ratio = ratios[i];
    const double fabric = 50.0 / ratio;
    const Rate goodput = Rate::gbps(fabric) * 0.85;
    const double solo = dlrm.solo_iteration(goodput).to_millis();
    const double frac = dlrm.comm_fraction(goodput);
    const CommProfile p = analytic_profile(dlrm, goodput);
    const std::vector<CommProfile> pair = {p, p};
    const bool compatible = solver.solve(pair).compatible;

    const auto& fair = results[i].fair;
    const auto& unfair = results[i].unfair;
    table.add_row(
        {TextTable::num(ratio, 1) + ":1", TextTable::num(fabric, 1) + "G",
         TextTable::num(solo, 0), TextTable::num(frac, 2),
         bench::mean_cell(fair.jobs[0]) + " / " + bench::mean_cell(fair.jobs[1]),
         bench::mean_cell(unfair.jobs[0]) + " / " +
             bench::mean_cell(unfair.jobs[1]),
         compatible ? "compatible" : "incompatible"});
    fractions.push_back(frac);
    const std::string at = TextTable::num(ratio, 1) + ":1 ";
    if (compatible != (frac <= 0.5)) verdict_misses += at;
    if (compatible && std::max(unfair.jobs[0].mean_ms,
                               unfair.jobs[1].mean_ms) > 1.05 * solo) {
      recovery_misses += at;
    }
    if (!compatible && !(unfair.jobs[0].mean_ms < fair.jobs[0].mean_ms &&
                         unfair.jobs[1].mean_ms > fair.jobs[1].mean_ms)) {
      redistribution_misses += at;
    }
  }
  std::printf("%s\n", table.render().c_str());
  bench::Claims claims;
  claims.near("comm fraction 0.30 at 1:1 (5%)", {fractions.front()}, 0.30,
              0.05 * 0.30);
  claims.near("comm fraction ~0.63 at 4:1 (5%)", {fractions.back()}, 0.63,
              0.05 * 0.63);
  claims.check("compatible exactly while the fraction is <= 0.5",
               verdict_misses.empty(), verdict_misses);
  claims.check("while compatible, unfairness recovers solo (both jobs, 5%)",
               recovery_misses.empty(), recovery_misses);
  claims.check("past it, unfairness redistributes: J1 faster, J2 slower "
               "than fair", redistribution_misses.empty(),
               redistribution_misses);
  return claims.exit_code();
}
