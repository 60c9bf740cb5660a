// Cluster scheduler walkthrough: the full §4 pipeline on a leaf-spine
// cluster, driven through the *online* orchestrator —
//   1. profile every job in isolation (measured, not assumed),
//   2. script an arrival trace (a schedule is plain data; production uses
//      generate_arrivals() for Poisson churn),
//   3. replay the identical trace under locality-only and under
//      compatibility-aware admission, letting the orchestrator place jobs,
//      derive flow schedules per sharing group (§5 unified circle), run the
//      fluid simulation, and retire departures,
//   4. compare per-job slowdowns.
//
// Usage: cluster_scheduler [seconds_simulated]
#include <cstdio>

#include "bench/cli.h"
#include "orch/orchestrator.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

JobRequest profiled_request(const char* name, const char* model, int batch,
                            int workers) {
  JobRequest r;
  r.name = name;
  r.workers = workers;
  const auto calibrated = ModelZoo::calibrated(model, batch);
  r.profile = calibrated ? *calibrated
                         : ModelZoo::analytic(model, batch, workers);
  // Step 1: profile the job in isolation, as §4 prescribes — run it alone
  // on a dedicated link under DCQCN and extract the periodic abstraction.
  ProfilerOptions opts;
  opts.iterations = 12;
  opts.warmup = 3;
  const MeasuredProfile measured = measure_profile(r.profile, opts);
  r.comm_profile = measured.profile;
  std::printf("  profiled %-10s: period %7.1f ms, comm fraction %.2f, "
              "comm rate %.1f Gbps\n",
              name, measured.profile.period.to_millis(),
              measured.profile.comm_fraction(),
              measured.mean_comm_rate.to_gbps());
  return r;
}

JobArrival arrive(double at_s, double service_s, JobRequest request) {
  JobArrival a;
  a.at = TimePoint::origin() + Duration::from_seconds_f(at_s);
  a.service = Duration::from_seconds_f(service_s);
  a.request = std::move(request);
  return a;
}

void report(const char* title, const ClusterRunReport& result) {
  std::printf("\n-- %s --\n", title);
  TextTable table({"job", "state", "queue ms", "spans fabric", "mean ms",
                   "solo ms", "slowdown"});
  for (const auto& o : result.jobs) {
    const bool measured = o.iterations > 0;
    table.add_row({o.name, to_string(o.state),
                   TextTable::num(o.queue_delay.to_millis(), 0),
                   o.spans_fabric ? "yes" : "",
                   measured ? TextTable::num(o.mean_ms, 0) : "-",
                   measured ? TextTable::num(o.solo_ms, 0) : "-",
                   measured ? TextTable::num(o.slowdown, 2) + "x" : "-"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("  mean slowdown %.3f, worst %.3f; solver: %zu solves, "
              "%zu cache hits\n",
              result.mean_slowdown(), result.max_slowdown(),
              result.resolve.solves, result.resolve.cache_hits);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 12);
  std::printf("== Step 1: profile jobs in isolation ==\n");
  // Two DLRMs (mutually compatible), one BERT (incompatible with DLRM), and
  // a small ResNet.  Locality admission happens to put BERT next to a DLRM
  // on rack-1 uplinks; the compatibility-aware controller pairs the DLRMs
  // instead and the flow schedule interleaves them.
  JobRequest dlrm_a = profiled_request("dlrm-a", "DLRM", 2000, 4);
  JobRequest dlrm_b = profiled_request("dlrm-b", "DLRM", 2000, 4);
  JobRequest bert_a = profiled_request("bert-a", "BERT", 8, 4);
  JobRequest resnet_a = profiled_request("resnet-a", "ResNet50", 1600, 2);

  // Step 2: script the arrival trace.  Jobs trickle in over the first
  // second and train past the horizon, except the ResNet, which departs
  // midway — churn the orchestrator absorbs by re-deriving gates for the
  // jobs that remain.
  ArrivalSchedule schedule;
  schedule.jobs.push_back(arrive(0.0, 10.0 * seconds, std::move(dlrm_a)));
  schedule.jobs.push_back(arrive(0.2, 10.0 * seconds, std::move(dlrm_b)));
  schedule.jobs.push_back(arrive(0.4, 10.0 * seconds, std::move(bert_a)));
  schedule.jobs.push_back(arrive(0.6, 0.5 * seconds, std::move(resnet_a)));

  const Topology topo =
      Topology::leaf_spine(5, 3, 1, Rate::gbps(50), Rate::gbps(50));
  std::printf("\n== Step 3-4: admit, schedule, simulate (%d s) ==\n", seconds);

  OrchestratorConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.horizon = Duration::seconds(seconds);

  {
    OrchestratorConfig locality = cfg;
    locality.admission.policy = AdmissionPolicyKind::kLocalityOnly;
    report("locality-only admission, default DCQCN",
           Orchestrator(topo, schedule, locality).run());
  }
  {
    OrchestratorConfig compat = cfg;
    compat.admission.policy = AdmissionPolicyKind::kCompatibilityAware;
    compat.flow_schedule = true;
    report("compatibility-aware admission + flow schedule",
           Orchestrator(topo, schedule, compat).run());
  }
  std::printf("\nThe compatibility-aware run should hold every job at or "
              "near 1.0x while the baseline lets fabric sharing stretch "
              "iterations.\n");
  return 0;
}
