// Figure 1b / 1c: per-job bottleneck throughput for two VGG19(1200) jobs
// under (b) fair DCQCN — both T = 125 us, ~21 Gbps each — and (c) unfair
// DCQCN — J1 more aggressive, ~30 vs ~15 Gbps during contention.
//
// Prints the time series of each job's achieved throughput during the first
// iterations plus an ASCII plot per scenario.
#include <cstdio>
#include <utility>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/plot.h"
#include "telemetry/recorders.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

struct Observed {
  ScenarioResult result;
  std::vector<LinkThroughputRecorder::Sample> samples;
};

Observed run(bool unfair) {
  // Fig. 1 does not pin a batch size; this profile's comm/compute ratio is
  // calibrated so ideal sliding yields the paper's 1.23x median speed-up:
  // fair = C + 2M, unfair = C + M, (C+2M)/(C+M) = 1.23 at M = 0.3 C.
  const JobProfile vgg = ModelZoo::synthetic(
      "VGG19", Duration::millis(180),
      Rate::gbps(42.5) * Duration::millis(54));
  std::vector<ScenarioJob> jobs = {{"J1", vgg}, {"J2", vgg}};
  if (unfair) {
    jobs[0].cc_timer = aggressive_knobs().timer;
    jobs[0].cc_rai = aggressive_knobs().rai;
    jobs[1].cc_timer = meek_knobs().timer;
    jobs[1].cc_rai = meek_knobs().rai;
  }
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::millis(1200);  // ~4 iterations
  cfg.warmup_iterations = 0;
  TraceBus bus;
  LinkThroughputRecorder recorder(LinkId{0}, Duration::millis(5));
  recorder.attach(bus);
  cfg.trace = &bus;
  Observed out;
  out.result = run_dumbbell_scenario(jobs, cfg);
  out.samples = recorder.samples();
  return out;
}

/// Prints and returns each job's mean throughput while both are actively
/// sending (the contention window), which is what Fig. 1b/1c report for the
/// first iteration, and plots the first iterations.
std::pair<double, double> report(const char* title, const Observed& obs) {
  std::printf("---- %s ----\n", title);
  Summary j1, j2;
  for (const auto& s : obs.samples) {
    const auto i1 = s.per_job.find(JobId{0});
    const auto i2 = s.per_job.find(JobId{1});
    const double r1 = i1 == s.per_job.end() ? 0 : i1->second.to_gbps();
    const double r2 = i2 == s.per_job.end() ? 0 : i2->second.to_gbps();
    if (r1 > 1.0 && r2 > 1.0) {  // both communicating
      j1.add(r1);
      j2.add(r2);
    }
  }
  const double m1 = j1.empty() ? 0.0 : j1.mean();
  const double m2 = j2.empty() ? 0.0 : j2.mean();
  std::printf("mean throughput while contending:  J1 %.1f Gbps   J2 %.1f Gbps\n",
              m1, m2);

  Series s1{"J1 (Gbps)", {}}, s2{"J2 (Gbps)", {}};
  for (const auto& s : obs.samples) {
    const double t = (s.time - TimePoint::origin()).to_millis();
    if (t > 700) break;  // first couple of iterations, like the figure
    const auto i1 = s.per_job.find(JobId{0});
    const auto i2 = s.per_job.find(JobId{1});
    s1.points.emplace_back(t, i1 == s.per_job.end() ? 0 : i1->second.to_gbps());
    s2.points.emplace_back(t, i2 == s.per_job.end() ? 0 : i2->second.to_gbps());
  }
  PlotOptions popt;
  popt.x_label = "time (ms)";
  std::printf("%s\n", render_plot({s1, s2}, popt).c_str());
  return {m1, m2};
}

}  // namespace

int main() {
  std::printf("Figure 1b/1c: throughput of two VGG19 jobs on a 50 Gbps "
              "bottleneck\n\n");
  const auto [fair1, fair2] =
      report("Fig 1b: fair DCQCN (both T=125us)", run(/*unfair=*/false));
  const auto [unfair1, unfair2] =
      report("Fig 1c: unfair DCQCN (J1 aggressive)", run(/*unfair=*/true));
  bench::Claims claims;
  claims.near("fair: both jobs within 3 Gbps of an even 21.25 Gbps (paper 21)",
              {fair1, fair2}, 21.25, 3);
  claims.within("unfair: aggressive J1 above 24 Gbps (paper 30)", {unfair1},
                24, INFINITY);
  claims.within("unfair: meek J2 below 18 Gbps (paper 15)", {unfair2},
                -INFINITY, 18);
  claims.near("unfair: J1 + J2 within 5 Gbps of the 42.5 Gbps goodput",
              {unfair1 + unfair2}, 42.5, 5);
  return claims.exit_code();
}
