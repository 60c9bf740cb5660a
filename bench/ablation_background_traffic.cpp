// Ablation: aperiodic background traffic vs the interleaving mechanisms.
// The paper's model assumes the bottleneck carries only periodic ML flows.
// Real links also carry storage/eval/logging traffic; this sweep injects
// Poisson background flows at increasing offered load and measures the two
// compatible DLRM jobs under unfair DCQCN.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/cli.h"
#include "net/routing.h"
#include "sim/simulator.h"
#include "telemetry/table.h"
#include "util/stats.h"
#include "workload/background.h"
#include "workload/job.h"
#include "workload/model_zoo.h"
#include "cc/factory.h"
#include "cluster/scenario.h"

using namespace ccml;

namespace {

struct Outcome {
  double j1_ms, j2_ms;
  double background_completed;
};

/// Under DCQCN, J1 is the aggressive job; under strict priority queues J1
/// outranks J2 and the background traffic is a scavenger class below both.
Outcome run(PolicyKind policy, double background_gbps, int seconds) {
  Simulator sim;
  // 3 host pairs: two ML jobs + one background pair, one bottleneck.
  const Topology topo = Topology::dumbbell(3, Rate::gbps(50), Rate::gbps(50));
  const bool strict = policy == PolicyKind::kPriority;
  Network net(topo, make_policy(policy), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();

  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::vector<std::unique_ptr<TrainingJob>> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = JobId{i};
    spec.name = i == 0 ? std::string("J1") : std::string("J2");
    spec.profile = dlrm;
    spec.paths = {JobPath{hosts[2 * i], hosts[2 * i + 1],
                          router.pick(hosts[2 * i], hosts[2 * i + 1], 0)}};
    if (strict) {
      spec.priority = i;
    } else {
      const Aggressiveness knobs = i == 0 ? aggressive_knobs() : meek_knobs();
      spec.cc_timer = knobs.timer;
      spec.cc_rai = knobs.rai;
    }
    jobs.push_back(std::make_unique<TrainingJob>(sim, net, std::move(spec)));
  }

  std::unique_ptr<BackgroundTraffic> background;
  if (background_gbps > 0) {
    BackgroundConfig bg;
    bg.paths = {JobPath{hosts[4], hosts[5], router.pick(hosts[4], hosts[5], 0)}};
    bg.offered_load = Rate::gbps(background_gbps);
    bg.mean_flow_size = Bytes::mega(8);
    bg.priority = strict ? 9 : 0;
    background = std::make_unique<BackgroundTraffic>(sim, net, bg);
    background->start();
  }

  for (auto& j : jobs) j->start();
  sim.run_for(Duration::seconds(seconds));

  Outcome out{};
  for (int i = 0; i < 2; ++i) {
    Summary s;
    const auto& iters = jobs[i]->iteration_times();
    for (std::size_t k = 3; k < iters.size(); ++k) s.add(iters[k].to_millis());
    (i == 0 ? out.j1_ms : out.j2_ms) = s.empty() ? 0 : s.mean();
  }
  out.background_completed =
      background ? static_cast<double>(background->flows_completed()) : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 15);
  std::printf("Ablation: Poisson background traffic vs the unfairness "
              "mechanism (2 x DLRM(2000) unfair DCQCN, solo 1000 ms)\n\n");

  TextTable table({"background load", "J1 mean ms", "J2 mean ms",
                   "bg flows done"});
  Outcome lighter{};
  bool eroding = true;
  for (const double gbps : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const Outcome o = run(PolicyKind::kDcqcn, gbps, seconds);
    table.add_row({TextTable::num(gbps, 0) + " Gbps",
                   TextTable::num(o.j1_ms, 0), TextTable::num(o.j2_ms, 0),
                   TextTable::num(o.background_completed, 0)});
    eroding = eroding && o.j1_ms >= lighter.j1_ms && o.j2_ms >= lighter.j2_ms;
    lighter = o;
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("and with background traffic demoted to a low-priority class "
              "(scavenger), under strict-priority queues:\n\n");
  TextTable table2({"background load", "J1 mean ms", "J2 mean ms"});
  double scavenger_worst = 0;
  for (const double gbps : {0.0, 10.0, 20.0}) {
    const Outcome o = run(PolicyKind::kPriority, gbps, seconds);
    table2.add_row({TextTable::num(gbps, 0) + " Gbps",
                    TextTable::num(o.j1_ms, 0), TextTable::num(o.j2_ms, 0)});
    scavenger_worst = std::max({scavenger_worst, o.j1_ms, o.j2_ms});
  }
  std::printf("%s\n", table2.render().c_str());
  bench::Claims claims;
  claims.check("best-effort load erodes the payoff as it grows",
               eroding, "a heavier load ran faster");
  claims.near("a scavenger class restores ~solo at every load (5%)",
              {scavenger_worst}, 1000, 0.05 * 1000);
  return claims.exit_code();
}
