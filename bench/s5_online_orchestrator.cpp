// Section 5, taken online: admission control under job churn.
//
// The paper's cluster-level result is that compatibility-aware scheduling
// keeps jobs near their dedicated-network iteration times.  This bench tests
// the claim where real schedulers live: a continuous Poisson arrival stream
// on a leaf-spine fabric, jobs departing after their service time, and an
// admission controller deciding placement online.  The *same* arrival trace
// is replayed under both policies:
//   * locality-only admits whenever capacity exists, blind to sharing;
//   * compatibility-aware admits spanning jobs only onto ToR pairs whose
//     induced link sharing the solver certifies against the incumbents,
//     queueing briefly otherwise.
// Expected: compatibility-aware wins on mean per-job slowdown, paying (at
// most) a little queueing delay — and the incremental resolver answers a
// healthy fraction of its solve requests from the signature cache.
#include <cstdio>

#include "bench/cli.h"
#include "orch/orchestrator.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

ClusterRunReport run_policy(const Topology& topo,
                            const ArrivalSchedule& schedule,
                            AdmissionPolicyKind policy, Duration horizon) {
  OrchestratorConfig cfg;
  cfg.admission.policy = policy;
  cfg.horizon = horizon;
  return Orchestrator(topo, schedule, cfg).run();
}

}  // namespace

int main() {
  // Small enough that multi-worker jobs routinely span ToRs, and 2:1
  // oversubscribed through a single spine so spanning jobs actually share
  // and contend for uplinks — the regime where admission policy matters
  // at all.  (On a 1:1 fabric contended-link pruning dissolves every
  // sharing group and both policies coincide; see docs/fabric.md.)
  const Topology topo =
      Topology::leaf_spine(4, 2, 1, Rate::gbps(50), Rate::gbps(50));

  ArrivalConfig acfg;
  acfg.rate_per_min = 18.0;
  acfg.horizon = Duration::seconds(60);
  acfg.min_workers = 3;
  acfg.max_workers = 5;

  std::printf("online orchestrator: 4 ToRs x 2 hosts, 1 spine (2:1), "
              "%.0f jobs/min, %.0f s horizon, 3 seeds\n\n",
              acfg.rate_per_min, acfg.horizon.to_seconds());

  TextTable table({"seed", "policy", "admitted", "rejected", "mean queue ms",
                   "mean slowdown", "worst slowdown", "cache hit %"});
  double locality_slowdown = 0.0, compat_slowdown = 0.0;
  bool compat_cache_hits = true;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    acfg.seed = seed;
    const ArrivalSchedule schedule = generate_arrivals(acfg);
    for (const auto policy : {AdmissionPolicyKind::kLocalityOnly,
                              AdmissionPolicyKind::kCompatibilityAware}) {
      const ClusterRunReport r =
          run_policy(topo, schedule, policy, acfg.horizon);
      table.add_row({std::to_string(seed), to_string(policy),
                     std::to_string(r.admitted), std::to_string(r.rejected),
                     TextTable::num(r.mean_queue_delay_ms(), 1),
                     TextTable::num(r.mean_slowdown(), 3),
                     TextTable::num(r.max_slowdown(), 3),
                     TextTable::num(100.0 * r.resolve.hit_rate(), 1)});
      if (policy == AdmissionPolicyKind::kLocalityOnly) {
        locality_slowdown += r.mean_slowdown();
      } else {
        compat_slowdown += r.mean_slowdown();
        compat_cache_hits = compat_cache_hits && r.resolve.cache_hits > 0;
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("mean slowdown over seeds: locality %.3f, compat %.3f\n",
              locality_slowdown / 3.0, compat_slowdown / 3.0);
  bench::Claims claims;
  claims.within("compat-aware beats or ties locality-only on mean slowdown",
                {compat_slowdown / 3.0}, 0, locality_slowdown / 3.0);
  claims.check("the solver cache hits on every seed", compat_cache_hits,
               "a seed had no hit");
  return claims.exit_code();
}
