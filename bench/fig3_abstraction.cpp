// Figure 3: the geometric abstraction.  A VGG16 job with a 255 ms training
// iteration (141 ms pure compute) is rolled around a circle of perimeter
// 255: the communication phases of all iterations land on the same arc.
//
// We reproduce all three panels: (a) the time-series network demand, (b) the
// time series rolled around the circle, (c) the resulting abstraction.
#include <cstdio>

#include "bench/cli.h"
#include "core/profile.h"
#include "telemetry/plot.h"
#include "workload/model_zoo.h"
#include "workload/profiler.h"

using namespace ccml;

int main() {
  // The paper's Fig. 3 numbers: 255 ms iteration, first 141 ms compute.
  const CommProfile vgg16 = CommProfile::single_phase(
      "VGG16", Duration::millis(255), Duration::millis(141),
      Rate::gbps(42.5));

  std::printf("Figure 3: geometric abstraction of VGG16 "
              "(iteration 255 ms, compute 141 ms)\n\n");

  // (a) time-series demand over 3 iterations.
  std::printf("---- Fig 3a: time-series network demand ----\n");
  Series demand{"demand (Gbps)", {}};
  for (int t = 0; t < 3 * 255; ++t) {
    const Duration pos = wrap_to_circle(Duration::millis(t), vgg16.period);
    const bool comm = vgg16.to_intervals().contains(pos);
    demand.points.emplace_back(t, comm ? vgg16.demand.to_gbps() : 0.0);
  }
  PlotOptions popt;
  popt.x_label = "time (ms)";
  popt.height = 8;
  std::printf("%s\n", render_plot({demand}, popt).c_str());

  // (b)/(c) the circle.  '#' marks communication arcs; '.' compute.
  std::printf("---- Fig 3b/3c: rolled around a circle of perimeter 255 ----\n");
  std::printf("%s\n",
              render_circle({vgg16.to_intervals()}, {'#'}).c_str());
  std::printf("communication occupies [141, 255) = %.0f%% of the circle\n",
              100.0 * vgg16.comm_fraction());

  // Show that a simulated run lands on the same abstraction: profile a
  // synthetic VGG16 job whose compute/comm calibrate to the figure.
  const JobProfile job = ModelZoo::synthetic(
      "VGG16-fig3", Duration::millis(141),
      Rate::gbps(42.5) * Duration::millis(255 - 141));
  ProfilerOptions opts;
  opts.iterations = 25;
  opts.warmup = 5;
  const MeasuredProfile measured = measure_profile(job, opts);
  std::printf("\nmeasured by the profiler (solo run under DCQCN):\n");
  const double period_ms = measured.profile.period.to_millis();
  const double fraction = measured.profile.comm_fraction();
  std::printf("  period %.1f ms, comm fraction %.2f\n", period_ms, fraction);
  bench::Claims claims;
  claims.near("the profiler measures the 255 ms period (5%)", {period_ms},
              255, 0.05 * 255);
  claims.near("and the 114/255 comm fraction (5%)", {fraction}, 114.0 / 255,
              0.05 * 114.0 / 255);
  return claims.exit_code();
}
