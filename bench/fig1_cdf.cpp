// Figure 1d: CDF of training iteration times for two VGG19(1200) jobs over
// many iterations, fair vs unfair DCQCN.  The paper reports the unfair
// scenario accelerating the median iteration of *both* jobs by ~1.23x.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/plot.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

ScenarioResult run(bool unfair, Duration duration) {
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
  cfg.duration = duration;
  cfg.warmup_iterations = 0;  // the paper's CDF includes the transient
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  // ~500 iterations by default; pass seconds to override.
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 150);
  std::printf(
      "Figure 1d: CDF of iteration times, 2 x VGG19, %d s simulated\n\n",
      seconds);
  const auto fair = run(false, Duration::seconds(seconds));
  const auto unfair = run(true, Duration::seconds(seconds));

  TextTable table({"scenario", "job", "iters", "p25 (ms)", "median (ms)",
                   "p75 (ms)", "p95 (ms)"});
  auto add_rows = [&](const char* scenario, const ScenarioResult& r) {
    for (const auto& j : r.jobs) {
      table.add_row({scenario, j.name, std::to_string(j.iterations),
                     TextTable::num(j.cdf.percentile(25), 0),
                     TextTable::num(j.median_ms, 0),
                     TextTable::num(j.cdf.percentile(75), 0),
                     TextTable::num(j.p95_ms, 0)});
    }
  };
  add_rows("fair", fair);
  table.add_rule();
  add_rows("unfair", unfair);
  std::printf("%s\n", table.render().c_str());

  const double speedup1 = fair.jobs[0].median_ms / unfair.jobs[0].median_ms;
  const double speedup2 = fair.jobs[1].median_ms / unfair.jobs[1].median_ms;
  std::printf("median speed-up from unfairness:  J1 %.2fx   J2 %.2fx\n\n",
              speedup1, speedup2);

  PlotOptions popt;
  popt.x_label = "iteration time (ms)";
  popt.height = 14;
  std::printf("%s\n",
              render_plot({cdf_series("fair J1", fair.jobs[0].cdf),
                           cdf_series("fair J2", fair.jobs[1].cdf),
                           cdf_series("unfair J1", unfair.jobs[0].cdf),
                           cdf_series("unfair J2", unfair.jobs[1].cdf)},
                          popt)
                  .c_str());
  bench::Claims claims;
  claims.near("unfairness speeds up both medians by ~1.23x (within 5%)",
              {speedup1, speedup2}, 1.23, 0.05 * 1.23);
  return claims.exit_code();
}
