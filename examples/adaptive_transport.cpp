// Adaptive transport demo (paper §4, direction (i)).
//
// Watches the DCQCN rate machines directly: two compatible jobs start 150 ms
// apart under the adaptively unfair transport, and the demo prints a
// timeline of each flow's sending rate and comm-phase progress so you can
// see the "job closer to finishing wins" dynamic that interleaves them.
//
// Usage: adaptive_transport [seconds_simulated]
#include <cstdio>

#include "bench/cli.h"
#include "cc/dcqcn.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "telemetry/recorders.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

using namespace ccml;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 8);

  Simulator sim;
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  DcqcnConfig dcqcn;
  dcqcn.adaptive_rai = true;
  Network net(topo, std::make_unique<DcqcnPolicy>(dcqcn), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();

  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::vector<std::unique_ptr<TrainingJob>> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = JobId{i};
    spec.name = "DLRM-" + std::string(1, static_cast<char>('A' + i));
    spec.profile = dlrm;
    spec.paths = {JobPath{hosts[2 * i], hosts[2 * i + 1],
                          router.pick(hosts[2 * i], hosts[2 * i + 1], 0)}};
    spec.start = TimePoint::origin() + Duration::millis(150) * i;
    jobs.push_back(std::make_unique<TrainingJob>(sim, net, std::move(spec)));
    jobs.back()->on_iteration = [i](std::size_t iter, Duration d) {
      std::printf("      job %c iteration %2zu finished in %6.1f ms\n",
                  'A' + i, iter, d.to_millis());
    };
  }
  for (auto& j : jobs) j->start();

  // Timeline sampler: every 100 ms print both flows' rate and progress.
  std::printf("time(ms) | jobA rate  progress | jobB rate  progress\n");
  std::printf("---------+---------------------+--------------------\n");
  std::function<void()> sample = [&] {
    double rate[2] = {0, 0}, prog[2] = {-1, -1};
    for (const FlowId fid : net.active_flows()) {
      const int j = net.flow(fid).spec.job.value;
      if (j >= 0 && j < 2) {
        rate[j] = net.rate(fid).to_gbps();
        prog[j] = net.progress_of(fid);
      }
    }
    auto cell = [](double r, double p) {
      char buf[32];
      if (p < 0) {
        std::snprintf(buf, sizeof(buf), "  (compute)        ");
      } else {
        std::snprintf(buf, sizeof(buf), "%5.1f Gbps   %4.0f%%  ", r, p * 100);
      }
      return std::string(buf);
    };
    std::printf("%8.0f | %s| %s\n", sim.now().to_millis(),
                cell(rate[0], prog[0]).c_str(), cell(rate[1], prog[1]).c_str());
    if (sim.now() < TimePoint::origin() + Duration::seconds(seconds)) {
      sim.schedule_after(Duration::millis(100), sample);
    }
  };
  sim.schedule_after(Duration::millis(100), sample);

  sim.run_for(Duration::seconds(seconds));

  std::printf("\nBoth jobs should converge to ~1000 ms iterations (solo "
              "speed): when their phases collide, the flow with more "
              "progress gets the bigger R_AI and finishes first, pulling the "
              "phases apart without any operator-assigned aggressiveness.\n");
  return 0;
}
