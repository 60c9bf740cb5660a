#include "cluster/experiment.h"

#include <algorithm>
#include <map>

#include "util/union_find.h"

namespace ccml {

double ExperimentResult::mean_slowdown() const {
  Summary s;
  for (const auto& o : outcomes) {
    if (o.placed && o.iterations > 0) s.add(o.slowdown);
  }
  return s.empty() ? 0.0 : s.mean();
}

double ExperimentResult::max_slowdown() const {
  double worst = 0.0;
  for (const auto& o : outcomes) {
    if (o.placed && o.iterations > 0) worst = std::max(worst, o.slowdown);
  }
  return worst;
}

ExperimentResult run_cluster_experiment(const Topology& topo,
                                        const std::vector<JobRequest>& requests,
                                        PlacementPolicy& placement,
                                        const ExperimentConfig& config) {
  ExperimentResult result;
  result.placement = placement.place(topo, requests);

  RunCore core(topo, config, config.net, config.run_time);
  for (std::size_t j = 0; j < requests.size(); ++j) {
    core.trace_job(j, requests[j].name);
  }
  const Router router(topo);

  // Optional flow schedule: jobs sharing links transitively form a group,
  // solved on one unified circle.  Faults that change the topology or job
  // set re-solve it mid-run, without the departed jobs.
  std::vector<CommProfile> profiles;
  for (const JobRequest& r : requests) profiles.push_back(r.comm_profile);
  std::vector<Duration> start_offsets(requests.size(), Duration::zero());
  std::vector<bool> departed(requests.size(), false);
  const auto solve_gates = [&](std::vector<Duration>* starts) {
    UnionFind uf(requests.size());
    for (const auto& sl : result.placement.shared_links) {
      for (std::size_t i = 1; i < sl.jobs.size(); ++i) {
        uf.unite(sl.jobs[0], sl.jobs[i]);
      }
    }
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      if (!departed[j] && !result.placement.placements[j].hosts.empty()) {
        groups[uf.find(j)].push_back(j);
      }
    }
    const CompatibilitySolver solver(config.solver);
    RunCore::Gates gates(requests.size());
    for (const auto& [root, members] : groups) {
      core.gate_group(solver, members, profiles, gates, starts);
    }
    return gates;
  };
  RunCore::Gates gates(requests.size());
  if (config.flow_schedule) gates = solve_gates(&start_offsets);

  std::vector<std::unique_ptr<TrainingJob>> jobs(requests.size());
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const Placement& p = result.placement.placements[j];
    if (p.hosts.empty()) continue;
    JobSpec spec = ring_job_spec(topo, router, j, requests[j], p.hosts);
    spec.start = TimePoint::origin() + start_offsets[j];
    if (config.unique_priorities) {
      spec.priority = static_cast<int>(j);
      // WFQ-style fallback weighting for policies that use weights.
      spec.weight = 1.0;
    }
    spec.gate = gates[j];
    jobs[j] =
        std::make_unique<TrainingJob>(core.sim, core.net, std::move(spec));
  }
  core.start_static_jobs(jobs, departed, config.flow_schedule,
                         [&] { return solve_gates(nullptr); });
  core.run();
  if (core.injector) result.faults_applied = core.injector->applied();

  for (std::size_t j = 0; j < requests.size(); ++j) {
    JobOutcome out;
    out.name = requests[j].name;
    const Placement& p = result.placement.placements[j];
    out.placed = !p.hosts.empty();
    out.spans_fabric = p.spans_fabric;
    out.solo_ms =
        requests[j].profile.solo_iteration(core.nic_goodput()).to_millis();
    if (out.placed) {
      const auto& iters = jobs[j]->iteration_times();
      const Cdf cdf = post_warmup_cdf(iters, cluster_warmup(iters.size()));
      out.iterations = iters.size();
      if (!cdf.empty()) {
        out.mean_ms = cdf.mean();
        out.median_ms = cdf.median();
        out.p99_ms = cdf.percentile(99);
        out.slowdown = out.solo_ms > 0 ? out.mean_ms / out.solo_ms : 0.0;
      }
    }
    result.outcomes.push_back(std::move(out));
  }
  return result;
}

}  // namespace ccml
