#include "workload/profiler.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/job.h"

namespace ccml {

CommProfile analytic_profile(const JobProfile& job, Rate dedicated_rate) {
  CommProfile p;
  p.name = job.model.empty() ? "job" : job.model;
  p.demand = dedicated_rate;
  Duration cursor = Duration::zero();
  for (const PhaseSpec& phase : job.iteration_phases()) {
    cursor += phase.compute;
    if (phase.comm.is_positive()) {
      const Duration comm = transfer_time(phase.comm, dedicated_rate);
      p.arcs.push_back(Arc{cursor, comm});
      cursor += comm;
    }
  }
  p.period = cursor;
  return p;
}

MeasuredProfile measure_profile(const JobProfile& job,
                                const ProfilerOptions& opts) {
  if (opts.iterations <= opts.warmup) {
    throw std::invalid_argument(
        "measure_profile: iterations (" + std::to_string(opts.iterations) +
        ") must exceed the warmup (" + std::to_string(opts.warmup) + ")");
  }
  Simulator sim;
  Topology topo = Topology::dumbbell(1, opts.nic, opts.nic);
  TransportConfig transports;
  transports.dcqcn.seed = opts.seed;
  transports.swift.seed = opts.seed;
  transports.bbr.seed = opts.seed;
  transports.table.seed = opts.seed;
  NetworkConfig ncfg;
  ncfg.goodput_factor = opts.goodput_factor;
  Network net(topo, make_policy(opts.policy, transports), ncfg);
  net.attach(sim);

  const auto hosts = topo.hosts();
  assert(hosts.size() >= 2);
  Router router(topo);
  JobSpec spec;
  spec.id = JobId{0};
  spec.name = job.model;
  spec.profile = job;
  spec.paths = {
      JobPath{hosts[0], hosts[1], router.pick(hosts[0], hosts[1], 0)}};
  spec.max_iterations = opts.iterations;

  TrainingJob tj(sim, net, spec);
  bool done = false;
  tj.on_done = [&](const TrainingJob&) {
    done = true;
    sim.stop();
  };
  tj.start();
  // Generous deadline: iterations can't take longer than compute plus the
  // transfer at 1% of the NIC rate.
  const Bytes total_bytes = job.total_comm_bytes();
  const Duration worst =
      (job.total_compute() + (total_bytes.is_positive()
                                  ? transfer_time(total_bytes, opts.nic * 0.01)
                                  : Duration::zero())) *
      static_cast<std::int64_t>(opts.iterations + 1);
  sim.run_for(worst);
  if (!done) {
    throw std::runtime_error(
        "measure_profile: the profiling run did not finish by its deadline");
  }

  const auto& iters = tj.iteration_times();
  const Cdf cdf = post_warmup_cdf(iters, opts.warmup);
  Summary comm_rate;
  for (std::size_t i = opts.warmup; i < iters.size(); ++i) {
    const Duration comm = iters[i] - job.total_compute();
    if (comm.is_positive() && total_bytes.is_positive()) {
      comm_rate.add(total_bytes.bits() / comm.to_seconds());
    }
  }

  MeasuredProfile out;
  out.mean_iteration = Duration::from_millis_f(cdf.mean());
  out.p99_iteration = Duration::from_millis_f(cdf.percentile(99));
  out.mean_comm_rate =
      comm_rate.empty() ? Rate::zero() : Rate::bps(comm_rate.mean());
  // Rebuild the periodic abstraction at the measured rate, preserving the
  // job's phase structure, then stretch the period to the measured mean.
  const Rate rate = out.mean_comm_rate.is_positive()
                        ? out.mean_comm_rate
                        : opts.nic * opts.goodput_factor;
  out.profile = analytic_profile(job, rate);
  out.profile.period = out.mean_iteration;
  return out;
}

}  // namespace ccml
