// Section 4, direction (i): adaptively unfair congestion control.
// R_AI is scaled by (1 + Data_sent/Data_comm_phase), so a job nearing the
// end of its communication phase out-competes one that just started.  The
// bench shows:
//   * a compatible pair interleaves and reaches ~solo iteration times with
//     no manual aggressiveness assignment;
//   * an incompatible pair ends up sharing fairly in steady state (neither
//     job is persistently starved, unlike static unfairness).
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

ScenarioResult run_pair(const JobProfile& a, const JobProfile& b,
                        PolicyKind policy, bool static_unfair,
                        Duration duration, Duration stagger) {
  std::vector<ScenarioJob> jobs = {{"J1", a}, {"J2", b}};
  jobs[1].start_offset = stagger;
  if (static_unfair) {
    jobs[0].cc_timer = aggressive_knobs().timer;
    jobs[0].cc_rai = aggressive_knobs().rai;
    jobs[1].cc_timer = meek_knobs().timer;
    jobs[1].cc_rai = meek_knobs().rai;
  }
  ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.duration = duration;
  cfg.warmup_iterations = 10;
  return run_dumbbell_scenario(jobs, cfg);
}

void report(const char* title, const JobProfile& a, const JobProfile& b,
            Duration duration) {
  const Rate goodput = scenario_goodput();
  std::printf("---- %s ----\n", title);
  std::printf("solo: J1 %.0f ms, J2 %.0f ms\n",
              a.solo_iteration(goodput).to_millis(),
              b.solo_iteration(goodput).to_millis());
  // Two start conditions: perfectly synchronized (the symmetric trap the
  // paper's Fig. 2a shows) and a realistic 40 ms stagger.  Adaptive
  // unfairness needs *some* asymmetry — progress difference — to bite;
  // real jobs never start in perfect sync.
  TextTable table({"scheme", "sync J1", "sync J2", "staggered J1",
                   "staggered J2"});
  struct Row {
    const char* label;
    PolicyKind policy;
    bool static_unfair;
  };
  const Row rows[] = {
      {"fair DCQCN", PolicyKind::kDcqcn, false},
      {"static unfair", PolicyKind::kDcqcn, true},
      {"adaptive unfair", PolicyKind::kDcqcnAdaptive, false},
  };
  const double solo_ms = a.solo_iteration(goodput).to_millis();
  std::vector<std::string> convergence;
  for (const Row& row : rows) {
    const auto sync = run_pair(a, b, row.policy, row.static_unfair, duration,
                               Duration::zero());
    const auto stag = run_pair(a, b, row.policy, row.static_unfair, duration,
                               Duration::millis(40));
    table.add_row({row.label, TextTable::num(sync.jobs[0].mean_ms, 0),
                   TextTable::num(sync.jobs[1].mean_ms, 0),
                   TextTable::num(stag.jobs[0].mean_ms, 0),
                   TextTable::num(stag.jobs[1].mean_ms, 0)});
    const std::size_t c0 = stag.jobs[0].converged_after(solo_ms);
    const std::size_t c1 = stag.jobs[1].converged_after(solo_ms);
    const std::size_t worst = std::max(c0, c1);
    convergence.push_back(
        std::string(row.label) + ": " +
        (worst >= stag.jobs[0].iterations ? std::string("never")
                                          : std::to_string(worst)));
  }
  std::printf("%s", table.render().c_str());
  std::printf("iterations until interleaved (staggered start):");
  for (const auto& c : convergence) std::printf("  %s", c.c_str());
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 40);
  std::printf("Section 4(i): adaptively unfair congestion control "
              "(R_AI x (1 + sent/total))\n\n");

  report("compatible pair: DLRM(2000) x 2",
         *ModelZoo::calibrated("DLRM", 2000),
         *ModelZoo::calibrated("DLRM", 2000), Duration::seconds(seconds));

  report("incompatible pair: heavy communicators (comm fraction 0.7 each)",
         ModelZoo::synthetic("heavy-A", Duration::millis(300),
                             Rate::gbps(42.5) * Duration::millis(700)),
         ModelZoo::synthetic("heavy-B", Duration::millis(300),
                             Rate::gbps(42.5) * Duration::millis(700)),
         Duration::seconds(seconds));

  std::printf("expected shape: compatible pair -> adaptive reaches ~solo "
              "whenever starts are not perfectly synchronized (fair stays at "
              "the contended plateau when synchronized); incompatible pair "
              "-> adaptive ~ fair (jobs take turns being aggressive), while "
              "static unfairness starves the meek job.\n");
  return 0;
}
