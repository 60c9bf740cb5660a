// Tests for the online orchestrator subsystem (src/orch): arrival
// generation, the incremental resolver's cache and warm-start paths,
// admission-control verdicts, and the end-to-end determinism contract
// (byte-identical reports and traces across runs and sweep thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "orch/orchestrator.h"
#include "sim/sweep.h"
#include "workload/profiler.h"

namespace ccml {
namespace {

CommProfile phase_profile(const char* name, double period_ms,
                          double comm_ms) {
  return CommProfile::single_phase(
      name, Duration::from_millis_f(period_ms),
      Duration::from_millis_f(period_ms - comm_ms), Rate::gbps(42.5));
}

// --- Arrivals ---------------------------------------------------------------

TEST(Arrivals, DeterministicPerSeed) {
  ArrivalConfig cfg;
  cfg.seed = 5;
  cfg.horizon = Duration::seconds(120);
  const ArrivalSchedule a = generate_arrivals(cfg);
  const ArrivalSchedule b = generate_arrivals(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a.jobs[j].at, b.jobs[j].at);
    EXPECT_EQ(a.jobs[j].service, b.jobs[j].service);
    EXPECT_EQ(a.jobs[j].request.name, b.jobs[j].request.name);
    EXPECT_EQ(a.jobs[j].request.workers, b.jobs[j].request.workers);
  }
  cfg.seed = 6;
  const ArrivalSchedule c = generate_arrivals(cfg);
  bool differs = c.size() != a.size();
  for (std::size_t j = 0; !differs && j < a.size(); ++j) {
    differs = a.jobs[j].at != c.jobs[j].at;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same schedule";
}

TEST(Arrivals, RespectsConfig) {
  ArrivalConfig cfg;
  cfg.seed = 9;
  cfg.rate_per_min = 30.0;
  cfg.horizon = Duration::seconds(90);
  cfg.min_workers = 2;
  cfg.max_workers = 3;
  cfg.min_service = Duration::seconds(2);
  const ArrivalSchedule s = generate_arrivals(cfg);
  ASSERT_FALSE(s.empty());
  TimePoint prev = TimePoint::origin();
  for (const JobArrival& arr : s.jobs) {
    EXPECT_GE(arr.at, prev);
    prev = arr.at;
    EXPECT_LT(arr.at.since_origin(), cfg.horizon);
    EXPECT_GE(arr.request.workers, 2);
    EXPECT_LE(arr.request.workers, 3);
    EXPECT_GE(arr.service, cfg.min_service);
    EXPECT_TRUE(arr.request.comm_profile.valid());
  }
}

TEST(Arrivals, RejectsMalformedConfig) {
  ArrivalConfig cfg;
  cfg.rate_per_min = 0.0;
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
  cfg = {};
  cfg.horizon = Duration::zero();
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
  cfg = {};
  cfg.min_workers = 4;
  cfg.max_workers = 2;
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
}

// --- Incremental resolver ---------------------------------------------------

TEST(IncrementalResolver, CachesBySignature) {
  IncrementalResolver resolver;
  const std::vector<CommProfile> group = {phase_profile("a", 100, 30),
                                          phase_profile("b", 100, 30)};
  const auto first = resolver.solve_group(group);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.result->compatible);
  const auto second = resolver.solve_group(group);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result, second.result) << "cache must return stable pointers";
  EXPECT_EQ(resolver.stats().solves, 1u);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
  EXPECT_DOUBLE_EQ(resolver.stats().hit_rate(), 0.5);

  // Same geometry under a different *name* is the same cache entry: names
  // are excluded from the signature.
  const std::vector<CommProfile> renamed = {phase_profile("x", 100, 30),
                                            phase_profile("y", 100, 30)};
  EXPECT_TRUE(resolver.solve_group(renamed).cache_hit);

  // Different geometry is a different entry.
  const std::vector<CommProfile> other = {phase_profile("a", 100, 30),
                                          phase_profile("b", 100, 45)};
  EXPECT_FALSE(resolver.solve_group(other).cache_hit);
  EXPECT_EQ(resolver.cache_size(), 2u);
}

TEST(IncrementalResolver, WarmStartCertifiesWithoutSearch) {
  IncrementalResolver cold;
  const std::vector<CommProfile> group = {phase_profile("a", 100, 30),
                                          phase_profile("b", 100, 30)};
  const auto solved = cold.solve_group(group);
  ASSERT_TRUE(solved.result->compatible);
  EXPECT_GT(solved.result->nodes_explored, 0u);

  // Re-solving the same group in a fresh resolver with the previous
  // rotations as a warm start must certify from the witness alone.
  IncrementalResolver warm;
  const auto rewarmed = warm.solve_group(group, solved.result->rotations);
  EXPECT_TRUE(rewarmed.result->compatible);
  EXPECT_TRUE(rewarmed.result->proven);
  EXPECT_EQ(rewarmed.result->nodes_explored, 0u);
  EXPECT_EQ(warm.stats().warm_start_hits, 1u);
  EXPECT_EQ(rewarmed.result->rotations, solved.result->rotations);
}

// --- Admission --------------------------------------------------------------

struct AdmissionHarness {
  Topology topo = Topology::leaf_spine(3, 2, 1, Rate::gbps(50),
                                       Rate::gbps(50));
  Router router{topo};
  IncrementalResolver resolver;
  AdmissionController ctl;

  explicit AdmissionHarness(AdmissionConfig cfg = {})
      : ctl(topo, router, cfg, resolver) {}

  JobRequest request(const char* name, int workers, double period_ms,
                     double comm_ms) {
    JobRequest r;
    r.name = name;
    r.workers = workers;
    r.profile = ModelZoo::synthetic(
        name, Duration::from_millis_f(period_ms - comm_ms),
        Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
    r.comm_profile = phase_profile(name, period_ms, comm_ms);
    return r;
  }
};

TEST(Admission, RackLocalWheneverItFits) {
  AdmissionHarness h;
  const auto offer = h.ctl.offer(h.request("j0", 2, 100, 30), 0, {});
  ASSERT_EQ(offer.verdict, AdmissionOffer::Verdict::kAdmit);
  EXPECT_FALSE(offer.placement.spans_fabric);
  EXPECT_EQ(offer.placement.hosts.size(), 2u);
  EXPECT_EQ(h.ctl.free_host_count(), 4);
}

TEST(Admission, DefersWhenNoCapacity) {
  AdmissionHarness h;
  const auto first = h.ctl.offer(h.request("big", 5, 100, 30), 0, {});
  ASSERT_EQ(first.verdict, AdmissionOffer::Verdict::kAdmit);
  EXPECT_TRUE(first.placement.spans_fabric);
  const auto second = h.ctl.offer(h.request("late", 2, 100, 30), 1, {});
  EXPECT_EQ(second.verdict, AdmissionOffer::Verdict::kDefer);
  EXPECT_TRUE(second.capacity_blocked);

  // Releasing the first job's hosts lets the second in.
  h.ctl.release(first.placement.hosts);
  EXPECT_EQ(h.ctl.free_host_count(), 6);
  const auto retry = h.ctl.offer(h.request("late", 2, 100, 30), 1, {});
  EXPECT_EQ(retry.verdict, AdmissionOffer::Verdict::kAdmit);
}

TEST(Admission, CompatibilityAwareDefersIncompatibleSharing) {
  // Fill one host per rack so every 3-worker job must span ToRs, then make
  // the incumbent's profile clash with the newcomer's on any shared link
  // (both communicate > 50% of equal periods: no rotation can separate
  // them).
  AdmissionHarness h;
  const auto inc = h.ctl.offer(h.request("incumbent", 3, 100, 60), 0, {});
  ASSERT_EQ(inc.verdict, AdmissionOffer::Verdict::kAdmit);
  ASSERT_TRUE(inc.placement.spans_fabric);
  const auto inc_profile = phase_profile("incumbent", 100, 60);
  const std::vector<Incumbent> incumbents = {
      {0, &inc_profile, h.ctl.job_links(inc.placement.hosts, 0)}};

  const auto clash = h.ctl.offer(h.request("clash", 3, 100, 60), 1,
                                 incumbents);
  EXPECT_EQ(clash.verdict, AdmissionOffer::Verdict::kDefer);
  EXPECT_FALSE(clash.capacity_blocked);
  EXPECT_GT(clash.incompatible_links, 0);
  EXPECT_GT(clash.worst_violation, 0.0);

  // A compatible newcomer (30% + 60% < 100%) is admitted.
  const auto fits = h.ctl.offer(h.request("fits", 3, 100, 30), 1, incumbents);
  EXPECT_EQ(fits.verdict, AdmissionOffer::Verdict::kAdmit);
}

TEST(Admission, LocalityOnlyIgnoresCompatibility) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicyKind::kLocalityOnly;
  AdmissionHarness h(cfg);
  const auto inc = h.ctl.offer(h.request("incumbent", 3, 100, 60), 0, {});
  ASSERT_EQ(inc.verdict, AdmissionOffer::Verdict::kAdmit);
  const auto inc_profile = phase_profile("incumbent", 100, 60);
  const std::vector<Incumbent> incumbents = {
      {0, &inc_profile, h.ctl.job_links(inc.placement.hosts, 0)}};
  const auto clash = h.ctl.offer(h.request("clash", 3, 100, 60), 1,
                                 incumbents);
  EXPECT_EQ(clash.verdict, AdmissionOffer::Verdict::kAdmit);
}

// A chain harness: 3 ToRs x 2 hosts with an oversubscribed fabric, three
// 1-worker fillers packing rack 0 and half of rack 1, so a 3-worker
// newcomer has exactly one placement shape (rack1:1 + rack2:2) and its
// ring crosses both remaining racks' uplinks.  Incumbents A and B are
// pinned to one uplink each, giving the chain component A-link1-C-link2-B.
struct ChainHarness {
  Topology topo;
  Router router{topo};
  IncrementalResolver resolver;
  AdmissionController ctl;
  CommProfile profile_a = phase_profile("A", 100, 40);
  CommProfile profile_b = phase_profile("B", 100, 40);
  std::vector<Incumbent> incumbents;

  explicit ChainHarness(double fabric_gbps, AdmissionConfig cfg = {})
      : topo(Topology::leaf_spine(3, 2, 1, Rate::gbps(50),
                                  Rate::gbps(fabric_gbps))),
        ctl(topo, router, cfg, resolver) {
    // Three 1-worker fillers: two pack rack 0, the third takes half of
    // rack 1 (rack-local admission fills tors in order).
    std::vector<NodeId> tors;  // tor of each filler, admission order
    for (int f = 0; f < 3; ++f) {
      JobRequest filler;
      filler.name = "filler";
      filler.workers = 1;
      filler.comm_profile = phase_profile("filler", 100, 0);  // no comm
      const auto got = ctl.offer(filler, 0, {});
      EXPECT_EQ(got.verdict, AdmissionOffer::Verdict::kAdmit);
      tors.push_back(tor_of(got.placement.hosts.front()));
    }
    EXPECT_EQ(tors[0], tors[1]) << "first two fillers must pack one rack";
    EXPECT_NE(tors[1], tors[2]);
    // A contends on the half-filled rack's uplink, B on the empty rack's.
    NodeId rack2{};
    for (const NodeId h : topo.hosts()) {
      const NodeId t = tor_of(h);
      if (t != tors[0] && t != tors[2]) rack2 = t;
    }
    incumbents.push_back(Incumbent{0, &profile_a, {uplink(tors[2])}});
    incumbents.push_back(Incumbent{0, &profile_b, {uplink(rack2)}});
  }

  NodeId tor_of(NodeId host) const {
    return topo.link(topo.links_from(host).front()).dst;
  }

  /// The tor -> spine fabric link (the only link from a tor that does not
  /// lead back down to a host).
  LinkId uplink(NodeId tor) const {
    for (const LinkId lid : topo.links_from(tor)) {
      const NodeId dst = topo.link(lid).dst;
      const auto hosts = topo.hosts();
      if (std::find(hosts.begin(), hosts.end(), dst) == hosts.end()) {
        return lid;
      }
    }
    ADD_FAILURE() << "tor without uplink";
    return LinkId{-1};
  }

  AdmissionOffer offer_newcomer() {
    JobRequest c;
    c.name = "C";
    c.workers = 3;
    c.comm_profile = phase_profile("C", 100, 40);
    return ctl.offer(c, 0, incumbents);
  }
};

TEST(Admission, GraphAdmitsChainJointCircleDefers) {
  // Per-link circles certify the chain (each shared link carries two 0.4
  // density jobs), so graph-mode admission admits immediately...
  ChainHarness graph(37.5);
  const auto admitted = graph.offer_newcomer();
  EXPECT_EQ(admitted.verdict, AdmissionOffer::Verdict::kAdmit);
  EXPECT_TRUE(admitted.placement.spans_fabric);
  EXPECT_EQ(admitted.incompatible_links, 0);

  // ...while the legacy joint circle packs all three jobs onto ONE circle
  // (density 1.2), cannot certify it, and defers the newcomer even though
  // A and B share no link.
  AdmissionConfig joint;
  joint.joint_circle = true;
  ChainHarness legacy(37.5, joint);
  const auto deferred = legacy.offer_newcomer();
  EXPECT_EQ(deferred.verdict, AdmissionOffer::Verdict::kDefer);
  EXPECT_FALSE(deferred.capacity_blocked);
  EXPECT_EQ(deferred.incompatible_links, 2)
      << "both links C shares with the chain count as violated";
  EXPECT_GT(deferred.worst_violation, 0.0);
}

TEST(Admission, UncontendedFabricDissolvesTheChain) {
  // On a 1:1 fabric the uplinks cover the aggregate offered load, so
  // prune_uncontended_links removes every interference edge and even the
  // legacy joint-circle mode admits the same chain it deferred at 4:1.
  AdmissionConfig joint;
  joint.joint_circle = true;
  ChainHarness roomy(150.0, joint);
  const auto offer = roomy.offer_newcomer();
  EXPECT_EQ(offer.verdict, AdmissionOffer::Verdict::kAdmit);
  EXPECT_EQ(offer.incompatible_links, 0);
  EXPECT_DOUBLE_EQ(offer.worst_violation, 0.0);
}

// --- End-to-end orchestrator ------------------------------------------------

/// A contended setup: 4 ToRs x 2 hosts, jobs of 3-5 workers always span.
OrchestratorConfig small_cluster_config(AdmissionPolicyKind policy) {
  OrchestratorConfig cfg;
  cfg.admission.policy = policy;
  cfg.horizon = Duration::seconds(40);
  return cfg;
}

ArrivalSchedule small_cluster_arrivals(std::uint64_t seed) {
  ArrivalConfig acfg;
  acfg.seed = seed;
  acfg.rate_per_min = 18.0;
  acfg.horizon = Duration::seconds(40);
  acfg.min_workers = 3;
  acfg.max_workers = 5;
  return generate_arrivals(acfg);
}

Topology small_cluster_topo() {
  return Topology::leaf_spine(4, 2, 2, Rate::gbps(50), Rate::gbps(50));
}

TEST(Orchestrator, RunsChurnAndReportsOutcomes) {
  const Topology topo = small_cluster_topo();
  const ArrivalSchedule schedule = small_cluster_arrivals(21);
  ASSERT_GE(schedule.size(), 3u);
  const ClusterRunReport r =
      Orchestrator(topo, schedule,
                   small_cluster_config(
                       AdmissionPolicyKind::kCompatibilityAware))
          .run();
  EXPECT_EQ(r.submitted, schedule.size());
  EXPECT_EQ(r.jobs.size(), schedule.size());
  EXPECT_GT(r.admitted, 0u);
  EXPECT_GT(r.finished, 0u);
  EXPECT_GT(r.resolve.lookups(), 0u);
  EXPECT_GT(r.resolve.cache_hits, 0u) << "identical sharing groups must be "
                                         "answered from the cache";
  std::size_t running = 0, queued = 0, rejected = 0;
  for (const auto& j : r.jobs) {
    if (j.state == ClusterJobOutcome::State::kRunning) ++running;
    if (j.state == ClusterJobOutcome::State::kQueued) ++queued;
    if (j.state == ClusterJobOutcome::State::kRejected) ++rejected;
    if (j.slowdown > 0.0) {
      EXPECT_GE(j.slowdown, 0.999);
    }
  }
  EXPECT_EQ(running, r.running_at_end);
  EXPECT_EQ(queued, r.queued_at_end);
  EXPECT_EQ(rejected, r.rejected);
  EXPECT_EQ(r.admitted, r.finished + r.running_at_end);
}

TEST(Orchestrator, SummaryPrintsNaWithoutData) {
  ClusterRunReport r;  // nothing submitted
  EXPECT_NE(r.summary().find("queueing: mean n/a | slowdown: mean n/a worst "
                             "n/a\n"),
            std::string::npos)
      << r.summary();
  r.submitted = r.admitted = 1;  // admitted, no iteration measured yet
  r.jobs.emplace_back().state = ClusterJobOutcome::State::kRunning;
  EXPECT_NE(r.summary().find("queueing: mean 0.00 ms | slowdown: mean n/a "
                             "worst n/a\n"),
            std::string::npos)
      << r.summary();
}

TEST(Orchestrator, RejectsJobEventsInFaultPlan) {
  OrchestratorConfig cfg;
  cfg.faults.depart(TimePoint::origin() + Duration::seconds(1), JobId{0});
  EXPECT_THROW(Orchestrator(small_cluster_topo(), {}, cfg),
               std::invalid_argument);
}

TEST(Orchestrator, ByteDeterministicReportAndTrace) {
  const auto run_once = [](std::string& trace_out) {
    const Topology topo = small_cluster_topo();
    std::ostringstream trace_stream;
    JsonlSink sink(trace_stream);
    TraceBus bus;
    bus.add_sink(sink);
    OrchestratorConfig cfg =
        small_cluster_config(AdmissionPolicyKind::kCompatibilityAware);
    cfg.trace = &bus;
    cfg.faults.flap(TimePoint::origin() + Duration::seconds(8),
                    Duration::from_millis_f(500), "tor0->spine0");
    const ClusterRunReport r =
        Orchestrator(topo, small_cluster_arrivals(33), cfg).run();
    bus.flush();
    trace_out = trace_stream.str();
    return r.summary() + bus.metrics_summary();
  };
  std::string trace_a, trace_b;
  const std::string report_a = run_once(trace_a);
  const std::string report_b = run_once(trace_b);
  EXPECT_EQ(report_a, report_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_NE(trace_a.find("\"kind\":\"job-admit\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"kind\":\"job-depart\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"kind\":\"fault-apply\""), std::string::npos);
}

TEST(Orchestrator, SweepThreadCountDoesNotChangeReports) {
  const std::vector<std::uint64_t> seeds = {41, 42, 43, 44};
  const auto run_sweep = [&](unsigned threads) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner pool(opts);
    return pool.run(seeds, [](std::uint64_t seed, std::size_t) {
      const Topology topo = small_cluster_topo();
      return Orchestrator(topo, small_cluster_arrivals(seed),
                          small_cluster_config(
                              AdmissionPolicyKind::kCompatibilityAware))
          .run()
          .summary();
    });
  };
  const auto solo = run_sweep(1);
  const auto fanned = run_sweep(4);
  ASSERT_EQ(solo.size(), fanned.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo[i], fanned[i]) << "seed " << seeds[i];
  }
}

TEST(Orchestrator, CompatibilityAwareBeatsLocalityOnSlowdown) {
  const Topology topo = small_cluster_topo();
  const ArrivalSchedule schedule = small_cluster_arrivals(11);
  const ClusterRunReport locality =
      Orchestrator(topo, schedule,
                   small_cluster_config(AdmissionPolicyKind::kLocalityOnly))
          .run();
  const ClusterRunReport compat =
      Orchestrator(topo, schedule,
                   small_cluster_config(
                       AdmissionPolicyKind::kCompatibilityAware))
          .run();
  EXPECT_LE(compat.mean_slowdown(), locality.mean_slowdown() + 1e-9);
}

}  // namespace
}  // namespace ccml
