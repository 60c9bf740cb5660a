#include "cluster/scenario.h"

#include <memory>
#include <stdexcept>

#include "cc/policy/slab.h"
#include "ckpt/snapshot.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

namespace ccml {

/// Relative slack on iteration time for recovery convergence checks.
constexpr double kRecoveryTolerance = 0.08;

Aggressiveness aggressive_knobs() {
  return {Duration::micros(55), Rate::mbps(80)};
}

Aggressiveness meek_knobs() { return {Duration::micros(300), Rate::mbps(40)}; }

Aggressiveness ranked_knobs(int rank) {
  switch (rank) {
    case 0: return {Duration::micros(55), Rate::mbps(80)};
    case 1: return {Duration::micros(150), Rate::mbps(55)};
    default: return {Duration::micros(300), Rate::mbps(40)};
  }
}

Rate scenario_goodput(const ScenarioConfig& config) {
  return config.nic * config.goodput_factor;
}

void validate_scenario(const std::vector<ScenarioJob>& jobs,
                       const ScenarioConfig& config) {
  if (jobs.empty()) {
    throw std::invalid_argument("scenario: needs at least one job");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScenarioJob& j = jobs[i];
    if (j.name.empty()) {
      throw std::invalid_argument("scenario: job " + std::to_string(i) +
                                  " has an empty name");
    }
    if (j.weight <= 0.0) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' weight must be positive");
    }
    if (j.start_offset.is_negative()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' start offset must be non-negative");
    }
    if (j.compute_jitter.is_negative()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' compute jitter must be non-negative");
    }
    if (j.gate && !j.gate->period.is_positive()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' gate period must be positive");
    }
  }
  if (!config.duration.is_positive()) {
    throw std::invalid_argument("scenario: duration must be positive");
  }
  if (!config.nic.is_positive()) {
    throw std::invalid_argument("scenario: NIC rate must be positive");
  }
  if (!config.bottleneck.is_positive()) {
    throw std::invalid_argument("scenario: bottleneck rate must be positive");
  }
  if (config.goodput_factor <= 0.0 || config.goodput_factor > 1.0) {
    throw std::invalid_argument("scenario: goodput factor must be in (0,1]");
  }
}

std::size_t ScenarioJobStats::converged_after(double target_ms,
                                              double tolerance) const {
  std::size_t first = iteration_ms.size();
  for (std::size_t i = iteration_ms.size(); i-- > 0;) {
    if (std::abs(iteration_ms[i] - target_ms) <= target_ms * tolerance) {
      first = i;
    } else {
      break;
    }
  }
  return first;
}

std::string post_warmup_ms(const ScenarioJobStats& j, double ms,
                           int decimals) {
  return j.cdf.empty() ? "n/a" : TextTable::num(ms, decimals);
}

ScenarioResult run_dumbbell_scenario(const std::vector<ScenarioJob>& setups,
                                     const ScenarioConfig& config) {
  validate_scenario(setups, config);

  const Topology topo = Topology::dumbbell(static_cast<int>(setups.size()),
                                           config.nic, config.bottleneck);
  RunCore core(topo, config, {.goodput_factor = config.goodput_factor},
               config.duration);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    core.trace_job(i, setups[i].name, &setups[i].profile);
  }

  // Every job crosses the one bottleneck, so the live jobs form one group:
  // gated from the first iteration by a CASSINI-style flow schedule, and
  // re-solved when a fault makes a gated scenario's time-shifts stale.
  std::vector<CommProfile> profiles;
  for (const ScenarioJob& s : setups) {
    profiles.push_back(analytic_profile(s.profile, core.nic_goodput()));
  }
  std::vector<bool> departed(setups.size(), false);
  const auto solve_gates = [&] {
    RunCore::Gates gates(setups.size());
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < setups.size(); ++i) {
      if (!departed[i]) members.push_back(i);
    }
    core.gate_group(members, profiles, gates);
    return gates;
  };
  const RunCore::Gates scheduled =
      config.flow_schedule ? solve_gates() : RunCore::Gates();

  const Router router(topo);
  const auto hosts = topo.hosts();
  std::vector<std::unique_ptr<TrainingJob>> jobs;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    JobSpec spec;
    spec.id = JobId{static_cast<std::int32_t>(i)};
    spec.name = setups[i].name;
    spec.profile = setups[i].profile;
    spec.paths = {JobPath{hosts[2 * i], hosts[2 * i + 1],
                          router.pick(hosts[2 * i], hosts[2 * i + 1], 0)}};
    spec.cc_timer = setups[i].cc_timer;
    spec.cc_rai = setups[i].cc_rai;
    spec.priority = setups[i].priority;
    spec.weight = setups[i].weight;
    spec.gate = config.flow_schedule ? scheduled[i] : setups[i].gate;
    spec.compute_jitter = setups[i].compute_jitter;
    spec.jitter_seed = 0x9E37u * (i + 1);
    spec.start = TimePoint::origin() + setups[i].start_offset;
    jobs.push_back(
        std::make_unique<TrainingJob>(core.sim, core.net, std::move(spec)));
  }
  bool any_gated = config.flow_schedule;
  for (const ScenarioJob& s : setups) any_gated |= s.gate.has_value();
  core.start_static_jobs(jobs, departed, any_gated, solve_gates);
  core.run(config.checkpoint,
           {{"jobs",
             [&jobs] {
               StateBuf b;
               b.put_u64(jobs.size());
               for (const auto& j : jobs) b.put_bytes(j->serialize_state());
               return b.take();
             }}},
           [&] {
             if (config.on_cursor) config.on_cursor(core.sim, core.net);
           });

  ScenarioResult result;
  if (const auto* work =
          dynamic_cast<const QueuePassWork*>(&core.net.policy())) {
    result.queue_link_passes = work->queue_link_passes();
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ScenarioJobStats stats;
    stats.name = setups[i].name;
    const auto& iters = jobs[i]->iteration_times();
    stats.iterations = iters.size();
    stats.iteration_ms.reserve(iters.size());
    for (const Duration d : iters) stats.iteration_ms.push_back(d.to_millis());
    stats.cdf = post_warmup_cdf(iters, config.warmup_iterations);
    if (!stats.cdf.empty()) {
      stats.mean_ms = stats.cdf.mean();
      stats.median_ms = stats.cdf.median();
      stats.p95_ms = stats.cdf.percentile(95);
    }
    result.jobs.push_back(std::move(stats));
  }
  if (core.injector) {
    result.faults_applied = core.injector->applied();
    std::vector<JobTrace> traces;
    traces.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      JobTrace t;
      t.name = setups[i].name;
      t.starts = jobs[i]->iteration_starts();
      t.durations = jobs[i]->iteration_times();
      t.comm_mb_per_iter = setups[i].profile.total_comm_bytes().count() / 1e6;
      t.departed = departed[i];
      t.warmup = config.warmup_iterations;
      traces.push_back(std::move(t));
    }
    result.recovery =
        compute_recovery(config.faults, traces, kRecoveryTolerance);
  }
  return result;
}

}  // namespace ccml
