#include "orch/orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>

#include "cc/policy/registry.h"
#include "ckpt/snapshot.h"
#include "util/union_find.h"

namespace ccml {

namespace {

/// Watchdog event budget: unlike the dumbbell scenario, every run is guarded.
constexpr std::uint64_t kChurnRunMaxEvents = 50'000'000;

char* append(char* p, char* end, const char* fmt, auto... args) {
  const int n = std::snprintf(p, static_cast<std::size_t>(end - p), fmt,
                              args...);
  return n < 0 ? p : std::min(p + n, end);
}

}  // namespace

const char* to_string(ClusterJobOutcome::State state) {
  switch (state) {
    case ClusterJobOutcome::State::kRejected: return "rejected";
    case ClusterJobOutcome::State::kQueued: return "queued";
    case ClusterJobOutcome::State::kRunning: return "running";
    case ClusterJobOutcome::State::kFinished: return "finished";
  }
  return "unknown";
}

double ClusterRunReport::admission_rate() const {
  return submitted == 0
             ? 0.0
             : static_cast<double>(admitted) / static_cast<double>(submitted);
}

double ClusterRunReport::mean_queue_delay_ms() const {
  Summary s;
  for (const auto& j : jobs) {
    if (j.state == ClusterJobOutcome::State::kRunning ||
        j.state == ClusterJobOutcome::State::kFinished) {
      s.add(j.queue_delay.to_millis());
    }
  }
  return s.empty() ? 0.0 : s.mean();
}

double ClusterRunReport::mean_slowdown() const {
  Summary s;
  for (const auto& j : jobs) {
    if (j.slowdown > 0.0) s.add(j.slowdown);
  }
  return s.empty() ? 0.0 : s.mean();
}

double ClusterRunReport::max_slowdown() const {
  double worst = 0.0;
  for (const auto& j : jobs) worst = std::max(worst, j.slowdown);
  return worst;
}

std::string ClusterRunReport::summary() const {
  std::string out;
  char line[256];
  char* end = line + sizeof(line);
  char* p = append(line, end,
                   "cluster: %zu submitted, %zu admitted (%.1f%%), %zu "
                   "rejected, %zu finished, %zu running, %zu queued at end\n",
                   submitted, admitted, 100.0 * admission_rate(), rejected,
                   finished, running_at_end, queued_at_end);
  out.append(line, p);
  // "n/a", never a 0.000, where no job was admitted or measured.
  char queue[32] = "n/a", mean[32] = "n/a", worst[32] = "n/a";
  if (admitted > 0) {
    std::snprintf(queue, sizeof(queue), "%.2f ms", mean_queue_delay_ms());
  }
  if (max_slowdown() > 0.0) {
    std::snprintf(mean, sizeof(mean), "%.3f", mean_slowdown());
    std::snprintf(worst, sizeof(worst), "%.3f", max_slowdown());
  }
  p = append(line, end, "  queueing: mean %s | slowdown: mean %s worst %s\n",
             queue, mean, worst);
  out.append(line, p);
  p = append(line, end,
             "  resolver: %llu solves, %llu cache hits (%.1f%%), %llu "
             "warm-start hits, %llu/%llu component solves/hits | faults: "
             "%zu\n",
             static_cast<unsigned long long>(resolve.solves),
             static_cast<unsigned long long>(resolve.cache_hits),
             100.0 * resolve.hit_rate(),
             static_cast<unsigned long long>(resolve.warm_start_hits),
             static_cast<unsigned long long>(resolve.component_solves),
             static_cast<unsigned long long>(resolve.component_cache_hits),
             faults_applied);
  out.append(line, p);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    p = append(line, end,
               "  [%3zu] %-18s %dw %-8s queue %8.2f ms  iters %4zu  mean "
               "%8.2f ms  solo %8.2f ms  slowdown %.3f%s\n",
               i, j.name.c_str(), j.workers, to_string(j.state),
               j.queue_delay.to_millis(), j.iterations, j.mean_ms, j.solo_ms,
               j.slowdown, j.spans_fabric ? "  (spans)" : "");
    out.append(line, p);
  }
  return out;
}

Orchestrator::Orchestrator(const Topology& topo, ArrivalSchedule schedule,
                           OrchestratorConfig config)
    : topo_(topo), schedule_(std::move(schedule)), config_(std::move(config)) {
  if (config_.horizon <= Duration::zero()) {
    throw std::invalid_argument("Orchestrator: horizon must be positive");
  }
  for (const FaultEvent& ev : config_.faults.events) {
    if (!ev.is_link_event()) {
      throw std::invalid_argument(
          "Orchestrator: fault plan must contain link events only (job churn "
          "comes from the arrival schedule)");
    }
  }
}

ClusterRunReport Orchestrator::run() {
  const std::size_t n = schedule_.size();
  ClusterRunReport report;
  report.jobs.resize(n);

  // The fabric runs at the network defaults (NetworkConfig).
  const NetworkConfig net;
  RunCore core(topo_, config_, net, config_.horizon);
  Simulator& sim = core.sim;
  const Router router(topo_);
  IncrementalResolver resolver;
  AdmissionConfig admission_cfg = config_.admission;
  // CircleMode is the whole-stack switch: in the legacy single-circle mode
  // admission scores components on one joint circle too, so the A/B in
  // bench/s6_multi_bottleneck compares the single-bottleneck model
  // end-to-end, not just at gate derivation.
  admission_cfg.joint_circle =
      config_.circle == OrchestratorConfig::CircleMode::kSingleCircle;
  // Profile compatibility is transport-dependent: the admission model's
  // goodput assumption is derated by the registered transport's steady-state
  // efficiency (cc/policy/registry.h).  Every AIMD transport derates by
  // exactly 1.0, so pre-zoo behavior is bit-identical; BBR's probing cycle
  // costs a few percent and shifts the compatibility verdicts accordingly.
  admission_cfg.goodput_factor =
      net.goodput_factor * transport_goodput_derating(config_.policy);
  AdmissionController admission(topo_, router, admission_cfg, resolver);

  // Dedicated-network baselines into the stream — the same solo iteration
  // times the cluster report prints.
  for (std::size_t j = 0; j < n; ++j) {
    const JobRequest& request = schedule_.jobs[j].request;
    core.trace_job(j, request.name, &request.profile);
  }

  // --- Per-arrival live state ----------------------------------------------
  struct JobState {
    ClusterJobOutcome::State state = ClusterJobOutcome::State::kQueued;
    bool submitted = false;
    std::unique_ptr<TrainingJob> job;
    Placement placement;
    std::vector<LinkId> links;       // sorted ring links, for sharing audits
    TimePoint admitted_at;
    std::optional<Duration> rotation;  // last solver rotation (warm starts)
  };
  std::vector<JobState> state(n);
  std::deque<std::size_t> queue;  // deferred arrivals, FIFO
  bool fabric_degraded = false;   // some link is down: gates are stale

  // --- Gate re-derivation (incremental re-solve) ---------------------------
  const auto resolve_gates = [&] {
    if (!config_.flow_schedule) return;
    // Group running jobs that transitively share links.
    std::vector<std::size_t> running;
    for (std::size_t j = 0; j < n; ++j) {
      if (state[j].state == ClusterJobOutcome::State::kRunning) {
        running.push_back(j);
      }
    }
    // Interference edges come only from links that can actually be
    // contended: capacity below the aggregate demand of the running jobs
    // crossing them (core/interference_graph.h).  On a 1:1 fabric the set
    // is empty and every job runs ungated — the paper's regime falls out
    // as the special case.
    std::vector<GraphJob> contended(running.size());
    for (std::size_t k = 0; k < running.size(); ++k) {
      const std::size_t j = running[k];
      contended[k].profile = schedule_.jobs[j].request.comm_profile;
      contended[k].links.reserve(state[j].links.size());
      for (const LinkId lid : state[j].links) {
        contended[k].links.push_back(lid.value);
      }
    }
    prune_uncontended_links(contended, [&](std::int32_t key) {
      return topo_.link(LinkId{key}).capacity * net.goodput_factor;
    });
    UnionFind uf(running.size());
    std::map<std::int32_t, std::size_t> first_user;  // link -> running[] pos
    for (std::size_t k = 0; k < running.size(); ++k) {
      for (const std::int32_t key : contended[k].links) {
        auto [it, fresh] = first_user.emplace(key, k);
        if (!fresh) uf.unite(it->second, k);
      }
    }
    // root -> members, as running[] positions.  While some link is down
    // every schedule is stale: each job forms its own group and runs ungated
    // until the restoration re-solves.
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (std::size_t k = 0; k < running.size(); ++k) {
      groups[fabric_degraded ? k : uf.find(k)].push_back(k);
    }
    for (const auto& [root, members] : groups) {
      // Lone jobs and incompatible groups run ungated (see
      // RunCore::gate_group).
      std::optional<FlowSchedule> fs;
      std::vector<Duration> rotations;
      if (members.size() >= 2) {
        std::vector<GraphJob> gjobs;
        std::vector<CommProfile> profiles;
        std::vector<Duration> warm;
        for (const std::size_t k : members) {
          gjobs.push_back(contended[k]);
          profiles.push_back(gjobs.back().profile);
          if (const auto& r = state[running[k]].rotation) warm.push_back(*r);
        }
        if (warm.size() < members.size()) warm.clear();
        const auto verdict = [&](bool compatible, double violation,
                                 bool cache_hit) {
          core.emit_solve(
              cache_hit ? "orch.resolve.cache-hits" : "orch.resolve.solves",
              compatible, violation, cache_hit ? "cached" : nullptr);
          return compatible;
        };
        if (config_.circle == OrchestratorConfig::CircleMode::kSingleCircle) {
          const auto answer = resolver.solve_group(profiles, std::move(warm));
          const SolverResult& sr = *answer.result;
          if (verdict(sr.compatible, sr.violation_fraction, answer.cache_hit)) {
            fs = make_flow_schedule(profiles, sr.rotations, sim.now());
            rotations = sr.rotations;
          }
        } else {
          // Graph mode: per-link circles with one rotation per job,
          // consistent across every link it crosses.  A chain A-L1-B-L2-C
          // that is unsatisfiable on one shared circle can still be gated.
          const auto answer = resolver.solve_component(gjobs, std::move(warm));
          const GraphResult& gr = *answer.result;
          if (verdict(gr.compatible, gr.worst_violation, answer.cache_hit)) {
            fs = make_graph_flow_schedule(gjobs, gr, sim.now());
            rotations = gr.rotations;
          }
        }
      }
      for (std::size_t i = 0; i < members.size(); ++i) {
        JobState& s = state[running[members[i]]];
        s.job->set_gate(fs ? std::optional(slot_gate(*fs, i)) : std::nullopt);
        s.rotation = fs ? std::optional(rotations[i]) : std::nullopt;
      }
    }
  };

  // --- Admission / departure machinery -------------------------------------
  std::function<void(std::size_t)> on_depart;

  const auto reject = [&](std::size_t j, const char* why) {
    state[j].state = ClusterJobOutcome::State::kRejected;
    ++report.rejected;
    core.emit("orch.rejected", TraceEventKind::kJobReject, j, 0.0, 0.0, why);
  };

  /// Attempts to admit arrival j right now; true on success.
  const auto try_admit = [&](std::size_t j) {
    std::vector<Incumbent> incumbents;
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i].state == ClusterJobOutcome::State::kRunning) {
        incumbents.push_back(Incumbent{
            i, &schedule_.jobs[i].request.comm_profile, state[i].links});
      }
    }
    const JobArrival& arr = schedule_.jobs[j];
    AdmissionOffer offer = admission.offer(arr.request, j, incumbents);
    if (offer.verdict != AdmissionOffer::Verdict::kAdmit) return false;

    JobState& s = state[j];
    s.state = ClusterJobOutcome::State::kRunning;
    s.placement = std::move(offer.placement);
    s.links = admission.job_links(s.placement.hosts, j);
    s.admitted_at = sim.now();
    const Duration delay = sim.now() - arr.at;
    ++report.admitted;
    core.emit("orch.admitted", TraceEventKind::kJobAdmit, j, delay.to_millis(),
              s.placement.spans_fabric ? 1.0 : 0.0);

    JobSpec spec =
        ring_job_spec(topo_, router, j, arr.request, s.placement.hosts);
    spec.start = sim.now();
    spec.compute_jitter = config_.compute_jitter;
    // Same derivation as the scenario runner: decorrelated across jobs,
    // reproducible across runs (and across policies replaying one trace).
    spec.jitter_seed = 0x9E37u * (j + 1);
    s.job = std::make_unique<TrainingJob>(sim, core.net, std::move(spec));
    s.job->start();
    sim.schedule_at(sim.now() + arr.service, [&, j] { on_depart(j); });
    resolve_gates();
    return true;
  };

  /// Re-offers queued jobs in FIFO order after the cluster state changed.
  const auto drain_queue = [&] {
    for (auto it = queue.begin(); it != queue.end();) {
      if (try_admit(*it)) {
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  };

  on_depart = [&](std::size_t j) {
    JobState& s = state[j];
    s.state = ClusterJobOutcome::State::kFinished;
    ++report.finished;
    core.emit("orch.departed", TraceEventKind::kJobDepart, j,
              (sim.now() - s.admitted_at).to_millis());
    s.job->stop();
    admission.release(s.placement.hosts);
    resolve_gates();
    drain_queue();
  };

  const auto on_submit = [&](std::size_t j) {
    const JobArrival& arr = schedule_.jobs[j];
    state[j].submitted = true;
    ++report.submitted;
    core.emit("orch.submitted", TraceEventKind::kJobSubmit, j,
              static_cast<double>(arr.request.workers));
    if (try_admit(j)) return;
    if (static_cast<int>(queue.size()) >= config_.admission.queue_capacity) {
      reject(j, "queue-full");
      return;
    }
    queue.push_back(j);
    if (config_.trace != nullptr) config_.trace->counter("orch.queued").add();
    // Deadline: a job still waiting this long after arrival gives up.
    sim.schedule_at(arr.at + config_.admission.queue_timeout, [&, j] {
      const auto it = std::find(queue.begin(), queue.end(), j);
      if (it == queue.end()) return;  // admitted or already rejected
      queue.erase(it);
      reject(j, "timeout");
    });
  };

  for (std::size_t j = 0; j < n; ++j) {
    sim.schedule_at(schedule_.jobs[j].at, [&, j] { on_submit(j); });
  }

  // --- Fault injection ------------------------------------------------------
  if (core.injector) {
    core.injector->on_topology_change = [&](const FaultEvent& ev) {
      fabric_degraded = ev.factor <= 0.0;
      resolve_gates();
    };
  }
  core.arm_watchdog(kChurnRunMaxEvents);

  // --- Checkpointing --------------------------------------------------------
  // Providers capture run-locals by reference: the coordinator must not tick
  // after run() returns.
  OrchestratorCursorContext cursor_ctx{sim, core.net, admission, drain_queue};
  const auto orch_state = [&] {
    StateBuf b;
    b.put_u64(n);
    for (std::size_t j = 0; j < n; ++j) {
      const JobState& s = state[j];
      b.put_u8(static_cast<std::uint8_t>(s.state));
      b.put_u8(s.submitted ? 1 : 0);
      b.put_i64(s.admitted_at.since_origin().ns());
      b.put_u64(s.links.size());
      for (const LinkId lid : s.links) b.put_i64(lid.value);
      b.put_u8(s.rotation ? 1 : 0);
      b.put_i64(s.rotation ? s.rotation->ns() : 0);
      b.put_u8(s.job ? 1 : 0);
      if (s.job) b.put_bytes(s.job->serialize_state());
    }
    b.put_u64(queue.size());
    for (const std::size_t j : queue) b.put_u64(j);
    b.put_u8(fabric_degraded ? 1 : 0);
    // Resolver progress: counters (minus nondeterministic wall-clock) and
    // the cache signature set, so a resumed run provably reuses the same
    // warm cache it would have had.
    const ResolveStats& rs = resolver.stats();
    b.put_u64(rs.solves);
    b.put_u64(rs.cache_hits);
    b.put_u64(rs.warm_start_hits);
    b.put_u64(rs.nodes_explored);
    const std::vector<std::string> keys = resolver.cache_keys();
    b.put_u64(keys.size());
    for (const std::string& k : keys) b.put_bytes(k);
    b.put_i64(admission.free_host_count());
    return b.take();
  };
  // Interference-graph state: the component-level verdict cache and its
  // counters.  A resumed run must rebuild the same component cache so the
  // graph-mode solve/cached stream (and thus the trace) stays
  // byte-identical; divergence here names this section.
  const auto igraph_state = [&] {
    StateBuf b;
    b.put_u8(static_cast<std::uint8_t>(config_.circle));
    const ResolveStats& rs = resolver.stats();
    b.put_u64(rs.component_solves);
    b.put_u64(rs.component_cache_hits);
    const std::vector<std::string> keys = resolver.component_cache_keys();
    b.put_u64(keys.size());
    for (const std::string& k : keys) b.put_bytes(k);
    return b.take();
  };
  core.run(config_.checkpoint, {{"orch", orch_state}, {"igraph", igraph_state}},
           [this, &cursor_ctx] {
             if (config_.on_cursor) config_.on_cursor(cursor_ctx);
           });

  // --- Outcomes -------------------------------------------------------------
  report.resolve = resolver.stats();
  report.faults_applied = core.injector ? core.injector->applied().size() : 0;
  for (std::size_t j = 0; j < n; ++j) {
    const JobState& s = state[j];
    const JobArrival& arr = schedule_.jobs[j];
    ClusterJobOutcome& out = report.jobs[j];
    out.name = arr.request.name;
    out.workers = arr.request.workers;
    out.state = s.state;
    if (!s.submitted) {
      // Arrival at/after the horizon: never offered.
      out.state = ClusterJobOutcome::State::kQueued;
    }
    out.solo_ms =
        arr.request.profile.solo_iteration(core.nic_goodput()).to_millis();
    if (s.job) {
      out.queue_delay = s.admitted_at - arr.at;
      out.spans_fabric = s.placement.spans_fabric;
      const auto& iters = s.job->iteration_times();
      const Cdf cdf = post_warmup_cdf(iters, cluster_warmup(iters.size()));
      out.iterations = iters.size();
      if (!cdf.empty()) {
        out.mean_ms = cdf.mean();
        out.slowdown = out.solo_ms > 0 ? out.mean_ms / out.solo_ms : 0.0;
      }
    }
    if (out.state == ClusterJobOutcome::State::kQueued) ++report.queued_at_end;
    if (out.state == ClusterJobOutcome::State::kRunning) {
      ++report.running_at_end;
    }
  }
  return report;
}

}  // namespace ccml
