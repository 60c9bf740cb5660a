// Ablation: ECN-marking noise model.  With deterministic (expectation-based)
// marking, two identical jobs under fair DCQCN stay phase-locked forever —
// matching the paper's testbed observation (Fig. 2a).  With independent
// Bernoulli marking per flow, the symmetric equilibrium is neutrally stable
// and uncorrelated noise random-walks the phases apart *even under fair
// sharing* — a modelling artifact worth quantifying, since it changes the
// fair-sharing baseline the paper compares against.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/table.h"

using namespace ccml;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 40);
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::printf("Ablation: deterministic vs stochastic ECN marking under FAIR "
              "DCQCN (2 x DLRM(2000))\n\n");

  TextTable table({"marking model", "seed", "J1 mean ms", "J2 mean ms",
                   "phases"});
  {
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kDcqcn;
    cfg.transports.dcqcn.deterministic_marking = true;
    cfg.duration = Duration::seconds(seconds);
    cfg.warmup_iterations = 10;
    const auto r = run_dumbbell_scenario({{"J1", dlrm}, {"J2", dlrm}}, cfg);
    table.add_row({"deterministic", "-", TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0),
                   r.jobs[0].mean_ms > 1200 ? "overlapped" : "slid apart"});
  }
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ScenarioConfig cfg;
    cfg.policy = PolicyKind::kDcqcn;
    cfg.transports.dcqcn.deterministic_marking = false;
    cfg.transports.dcqcn.seed = seed;
    cfg.duration = Duration::seconds(seconds);
    cfg.warmup_iterations = 10;
    const auto r = run_dumbbell_scenario({{"J1", dlrm}, {"J2", dlrm}}, cfg);
    table.add_row({"stochastic", std::to_string(seed),
                   TextTable::num(r.jobs[0].mean_ms, 0),
                   TextTable::num(r.jobs[1].mean_ms, 0),
                   r.jobs[0].mean_ms > 1200 ? "overlapped" : "slid apart"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("takeaway: the library defaults to deterministic marking so "
              "that the fair baseline reproduces the paper's persistent "
              "overlap; stochastic mode shows uncorrelated noise alone can "
              "eventually produce the interleaving (but without the "
              "controlled, fast convergence unfairness gives).\n");
  return 0;
}
