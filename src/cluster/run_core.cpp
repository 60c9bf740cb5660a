#include "cluster/run_core.h"

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"

namespace ccml {

namespace {

/// Default watchdog event budget of a static job set that injects faults.
constexpr std::uint64_t kFaultRunMaxEvents = 20'000'000;

Rate first_host_goodput(const Network& net) {
  const Topology& topo = net.topology();
  const std::vector<NodeId> hosts = topo.hosts();
  return hosts.empty()
             ? Rate::zero()
             : net.effective_capacity(topo.links_from(hosts.front()).front());
}

}  // namespace

RunCore::RunCore(const Topology& topo, const RunOptions& options,
                 const NetworkConfig& net_config, Duration length)
    : net(topo, make_policy(options.policy, options.transports), net_config),
      trace_(options.trace),
      watchdog_(options.watchdog),
      length_(length),
      nic_goodput_(first_host_goodput(net)) {
  net.attach(sim);
  if (trace_ != nullptr) sampler_ = bind_trace_bus(*trace_, net);
  if (!options.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, net, options.faults);
  }
}

void RunCore::trace_job(std::size_t index, const std::string& name,
                        const JobProfile* baseline) {
  if (trace_ == nullptr) return;
  trace_->register_job(JobId{static_cast<std::int32_t>(index)}, name);
  if (baseline != nullptr) {
    emit(nullptr, TraceEventKind::kSoloBaseline, index,
         baseline->solo_iteration(nic_goodput()).to_millis());
  }
}

void RunCore::arm_watchdog(std::uint64_t default_max_events) {
  WatchdogConfig wd = watchdog_;
  if (default_max_events != 0) {
    if (wd.max_events == 0) wd.max_events = default_max_events;
    if (wd.max_sim_time.is_zero()) wd.max_sim_time = length_ * 4;
  }
  if (wd.max_events == 0 && wd.max_sim_time.is_zero()) return;
  sim.set_watchdog(wd, [this] {
    std::string out =
        injector ? injector->diagnose() : std::string("fault state: none\n");
    out += "  active flows: " + std::to_string(net.active_flows().size()) +
           ", parked: " + std::to_string(net.parked_flows().size()) + "\n";
    return out;
  });
}

void RunCore::emit(const char* counter, TraceEventKind kind,
                   std::optional<std::size_t> job, double value, double value2,
                   const char* detail) {
  if (trace_ == nullptr) return;
  trace_->emit({.time = sim.now(),
                .kind = kind,
                .job = job ? JobId{static_cast<std::int32_t>(*job)} : JobId{},
                .value = value,
                .value2 = value2,
                .detail = detail});
  if (counter != nullptr) trace_->counter(counter).add();
}

void RunCore::gate_group(const CompatibilitySolver& solver,
                         const std::vector<std::size_t>& members,
                         std::span<const CommProfile> profiles, Gates& gates,
                         std::vector<Duration>* starts) {
  if (members.size() < 2) return;
  std::vector<CommProfile> group;
  for (const std::size_t j : members) group.push_back(profiles[j]);
  const SolverResult sr = solver.solve(group);
  emit_solve("solver.solves", sr.compatible, sr.violation_fraction);
  if (!sr.compatible) return;
  const FlowSchedule fs = make_flow_schedule(group, sr.rotations, sim.now());
  for (std::size_t k = 0; k < members.size(); ++k) {
    gates[members[k]] = slot_gate(fs, k);
    if (starts) (*starts)[members[k]] = fs.slots[k].job_start_offset;
  }
}

void RunCore::start_static_jobs(
    const std::vector<std::unique_ptr<TrainingJob>>& jobs,
    std::vector<bool>& departed, bool regate, std::function<Gates()> solve) {
  if (injector) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j]) {
        injector->bind_job(JobId{static_cast<std::int32_t>(j)}, *jobs[j]);
      }
    }
    const auto apply = [&jobs, &departed](const Gates& gates) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j] && !departed[j]) jobs[j]->set_gate(gates[j]);
      }
    };
    injector->on_topology_change = [=, &jobs](const FaultEvent& ev) {
      if (!regate) return;
      // Outage: a schedule solved for the healthy topology only hurts now.
      apply(ev.factor <= 0.0 ? Gates(jobs.size()) : solve());
    };
    injector->on_jobset_change = [=, &departed](const FaultEvent& ev) {
      if (ev.kind == FaultKind::kJobDepart) {
        departed[static_cast<std::size_t>(ev.job.value)] = true;
      }
      if (regate && (ev.kind == FaultKind::kJobDepart ||
                     ev.kind == FaultKind::kJobArrive)) {
        apply(solve());
      }
    };
  }
  arm_watchdog(injector ? kFaultRunMaxEvents : 0);
  for (const auto& job : jobs) {
    if (job) job->start();
  }
}

void RunCore::run(CheckpointCoordinator* ck, Sections own,
                  std::function<void()> on_cursor) {
  if (injector) injector->arm();
  if (ck != nullptr) {
    ck->add_provider("sim", [this] {
      StateBuf b;
      b.put_u64(sim.pending_events());
      return b.take();
    });
    ck->add_provider("net", [this] { return net.serialize_state(); });
    ck->add_provider("cc", [this] { return net.policy().serialize_state(); });
    for (auto& [name, capture] : own) ck->add_provider(name, capture);
    ck->add_provider("faults", [this] {
      return injector ? injector->serialize_state() : std::string();
    });
    ck->on_cursor = std::move(on_cursor);
    ck->install(sim, trace_);
  }
  sim.run_until(TimePoint::origin() + length_);
  net.flush_observers();
}

JobSpec ring_job_spec(const Topology& topo, const Router& router,
                      std::size_t index, const JobRequest& request,
                      const std::vector<NodeId>& hosts) {
  JobSpec spec;
  spec.id = JobId{static_cast<std::int32_t>(index)};
  spec.name = request.name;
  spec.profile = request.profile;
  spec.paths = ring_paths(topo, router, hosts, index);
  spec.split_bytes = false;
  if (spec.paths.empty()) {
    spec.profile.comm_bytes = Bytes::zero();
    spec.paths = {JobPath{hosts[0], hosts[0], Route{}}};
  }
  return spec;
}

}  // namespace ccml
