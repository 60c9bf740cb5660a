// Figure 2: bottleneck-link utilization of back-to-back iterations for the
// fair and unfair scenarios.  Under fairness both jobs sit at ~50% of the
// bandwidth whenever they communicate; under unfairness the aggressive job
// completes earlier each iteration and by roughly the fourth iteration the
// communication phases have slid apart and interleave perpetually.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/plot.h"
#include "telemetry/recorders.h"

using namespace ccml;

namespace {

/// Runs and plots one panel; returns the contention ratio over its last two
/// full 1-second windows, after the phases have had time to slide.
double run_and_plot(bool unfair) {
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
  cfg.duration = Duration::millis(5600);  // ~4-5 iterations
  cfg.warmup_iterations = 0;
  TraceBus bus;
  LinkThroughputRecorder recorder(LinkId{0}, Duration::millis(10));
  recorder.attach(bus);
  cfg.trace = &bus;
  const auto result = run_dumbbell_scenario(jobs, cfg);

  std::printf("---- Fig 2%c: %s ----\n", unfair ? 'b' : 'a',
              unfair ? "unfair bandwidth allocation"
                     : "fair bandwidth allocation");
  Series s1{"J1 share of link", {}}, s2{"J2 share of link", {}};
  const double cap = scenario_goodput().to_gbps();
  for (const auto& s : recorder.samples()) {
    const double t = (s.time - TimePoint::origin()).to_millis() / 1000.0;
    const auto i1 = s.per_job.find(JobId{0});
    const auto i2 = s.per_job.find(JobId{1});
    s1.points.emplace_back(
        t, i1 == s.per_job.end() ? 0 : i1->second.to_gbps() / cap);
    s2.points.emplace_back(
        t, i2 == s.per_job.end() ? 0 : i2->second.to_gbps() / cap);
  }
  PlotOptions popt;
  popt.x_label = "time (s)";
  popt.height = 12;
  std::printf("%s\n", render_plot({s1, s2}, popt).c_str());

  // Quantify the sliding: fraction of busy time with both jobs active, per
  // 1-second window.
  std::printf("contention ratio (both jobs sending / any job sending):\n");
  const auto& samples = recorder.samples();
  const double window_s = 1.0;
  double t0 = 0;
  int both = 0, any = 0, prev_both = 0, prev_any = 0;
  double last_two = 0;
  for (const auto& s : samples) {
    const double t = (s.time - TimePoint::origin()).to_millis() / 1000.0;
    const auto i1 = s.per_job.find(JobId{0});
    const auto i2 = s.per_job.find(JobId{1});
    const bool a = i1 != s.per_job.end() && i1->second.to_gbps() > 1.0;
    const bool b = i2 != s.per_job.end() && i2->second.to_gbps() > 1.0;
    if (a || b) ++any;
    if (a && b) ++both;
    if (t - t0 >= window_s) {
      std::printf("  [%4.1fs - %4.1fs]  %5.1f%%\n", t0, t,
                  any == 0 ? 0.0 : 100.0 * both / any);
      last_two = prev_any + any == 0
                     ? 0.0
                     : static_cast<double>(prev_both + both) / (prev_any + any);
      prev_both = both;
      prev_any = any;
      t0 = t;
      both = any = 0;
    }
  }
  std::printf("\niteration times (ms):");
  for (const auto& j : result.jobs) {
    std::printf("  %s:", j.name.c_str());
    std::printf(" mean %.0f", j.mean_ms);
  }
  std::printf("\n\n");
  return last_two;
}

}  // namespace

int main() {
  std::printf("Figure 2: link utilization across back-to-back iterations "
              "(2 x DLRM(2000))\n\n");
  const double fair = run_and_plot(/*unfair=*/false);
  const double unfair = run_and_plot(/*unfair=*/true);
  bench::Claims claims;
  claims.within("(a) fair: contention over 90% in the last two windows",
                {fair}, 0.9, 1.0);
  claims.within("(b) unfair: phases slid apart, contention under 5% in the "
                "last two windows", {unfair}, 0.0, 0.05);
  return claims.exit_code();
}
