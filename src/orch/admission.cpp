#include "orch/admission.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace ccml {

const char* to_string(AdmissionPolicyKind kind) {
  switch (kind) {
    case AdmissionPolicyKind::kLocalityOnly: return "locality";
    case AdmissionPolicyKind::kCompatibilityAware: return "compat";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const Topology& topo,
                                         const Router& router,
                                         AdmissionConfig config,
                                         IncrementalResolver& resolver)
    : topo_(topo), router_(router), config_(config), resolver_(resolver) {
  for (const NodeId host : topo.hosts()) {
    const auto& ups = topo.links_from(host);
    assert(!ups.empty() && "host without uplink");
    const NodeId tor = topo.link(ups.front()).dst;
    if (!free_.contains(tor)) tors_.push_back(tor);
    free_[tor].push_back(host);
    tor_of_[host] = tor;
  }
  for (auto& [tor, hosts] : free_) std::sort(hosts.begin(), hosts.end());
}

std::vector<NodeId> AdmissionController::take(NodeId tor, int count) {
  auto& pool = free_[tor];
  assert(static_cast<int>(pool.size()) >= count);
  std::vector<NodeId> out(pool.begin(), pool.begin() + count);
  pool.erase(pool.begin(), pool.begin() + count);
  return out;
}

void AdmissionController::release(const std::vector<NodeId>& hosts) {
  for (const NodeId host : hosts) {
    auto& pool = free_[tor_of_.at(host)];
    pool.insert(std::lower_bound(pool.begin(), pool.end(), host), host);
  }
}

int AdmissionController::free_host_count() const {
  int n = 0;
  for (const auto& [tor, hosts] : free_) n += static_cast<int>(hosts.size());
  return n;
}

std::vector<LinkId> AdmissionController::job_links(
    const std::vector<NodeId>& hosts, std::uint64_t salt) const {
  std::set<LinkId> links;
  for (const JobPath& p : ring_paths(topo_, router_, hosts, salt)) {
    links.insert(p.route.links.begin(), p.route.links.end());
  }
  return {links.begin(), links.end()};
}

void AdmissionController::score(Candidate& cand, const CommProfile& profile,
                                std::uint64_t salt,
                                const std::vector<Incumbent>& incumbents) {
  // Peek at the hosts this candidate would take, without reserving them.
  std::vector<NodeId> hosts;
  for (const auto& [tor, cnt] : cand.splits) {
    const auto& pool = free_.at(tor);
    hosts.insert(hosts.end(), pool.begin(), pool.begin() + cnt);
  }
  const auto links = job_links(hosts, salt);

  // Build the (job, link) interference graph over incumbents plus the
  // newcomer and solve only the newcomer's connected component: ONE verdict
  // per candidate with rotations consistent across every contended link,
  // instead of per-shared-link independent solves that could each pick a
  // different rotation for the same job.
  std::vector<GraphJob> jobs;
  jobs.reserve(incumbents.size() + 1);
  for (const Incumbent& inc : incumbents) {
    GraphJob gj;
    gj.profile = *inc.profile;
    gj.links.reserve(inc.links.size());
    for (const LinkId lid : inc.links) gj.links.push_back(lid.value);
    jobs.push_back(std::move(gj));
  }
  GraphJob mine;
  mine.profile = profile;
  mine.links.reserve(links.size());
  for (const LinkId lid : links) mine.links.push_back(lid.value);
  const std::size_t me = jobs.size();
  jobs.push_back(std::move(mine));

  cand.incompatible_links = 0;
  cand.worst_violation = 0.0;
  // Only links that can actually be contended create interference edges: a
  // link whose goodput capacity covers the aggregate demand of every job
  // crossing it is never a bottleneck, so sharing it is free (on a 1:1
  // fabric nothing ever defers).
  prune_uncontended_links(jobs, [&](std::int32_t key) {
    return topo_.link(LinkId{key}).capacity * config_.goodput_factor;
  });
  const std::vector<std::size_t> labels = InterferenceGraph::components(jobs);
  std::vector<GraphJob> component;
  std::vector<std::size_t> member_of;  // component position -> jobs[] index
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (labels[j] != labels[me]) continue;
    member_of.push_back(j);
    component.push_back(jobs[j]);
  }
  if (component.size() < 2) return;  // newcomer shares no link: always safe

  if (config_.joint_circle) {
    // Legacy single-bottleneck model: every component member on ONE
    // unified circle, including phantom constraints between jobs that
    // share no link.  When the joint circle cannot be certified, every
    // link the newcomer shares with the component counts as violated —
    // the legacy model has no per-link verdict to be finer with.
    std::vector<CommProfile> profiles;
    profiles.reserve(component.size());
    for (const GraphJob& gj : component) profiles.push_back(gj.profile);
    const auto joint = resolver_.solve_group(profiles);
    cand.worst_violation = joint.result->violation_fraction;
    if (joint.result->violation_fraction > 0.0) {
      std::set<std::uint64_t> shared;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (j == me || labels[j] != labels[me]) continue;
        shared.insert(jobs[j].links.begin(), jobs[j].links.end());
      }
      for (const std::uint64_t key : jobs[me].links) {
        if (shared.contains(key)) ++cand.incompatible_links;
      }
    }
    return;
  }

  const auto answer = resolver_.solve_component(component);
  const GraphResult& r = *answer.result;
  cand.worst_violation = r.worst_violation;
  // Marginal interference: links the NEWCOMER crosses that stay violated
  // under the consistent rotations.  (Violated links elsewhere in the
  // component are the incumbents' own business — deferring the newcomer
  // would not heal them.)
  const std::size_t my_pos = static_cast<std::size_t>(
      std::find(member_of.begin(), member_of.end(), me) - member_of.begin());
  for (const LinkVerdict& v : r.links) {
    if (v.violation_fraction <= 0.0) continue;
    if (std::find(v.jobs.begin(), v.jobs.end(), my_pos) != v.jobs.end()) {
      ++cand.incompatible_links;
    }
  }
}

AdmissionOffer AdmissionController::offer(
    const JobRequest& request, std::uint64_t salt,
    const std::vector<Incumbent>& incumbents) {
  AdmissionOffer out;

  // Rack-local first, for both policies: no fabric sharing, always safe.
  for (const NodeId tor : tors_) {
    if (static_cast<int>(free_.at(tor).size()) >= request.workers) {
      out.verdict = AdmissionOffer::Verdict::kAdmit;
      out.placement = Placement{take(tor, request.workers), false};
      return out;
    }
  }

  // Must span the fabric.  Enumerate ToR pairs that can hold the job, in
  // deterministic rack order; fall back to a greedy fullest-first split
  // when no pair fits (job wider than two racks' free capacity).
  std::vector<Candidate> candidates;
  for (std::size_t a = 0; a < tors_.size(); ++a) {
    const NodeId ta = tors_[a];
    const int fa = static_cast<int>(free_.at(ta).size());
    if (fa == 0 || fa >= request.workers) continue;
    for (std::size_t b = 0; b < tors_.size(); ++b) {
      if (a == b) continue;
      const NodeId tb = tors_[b];
      const int need_b = request.workers - fa;
      if (static_cast<int>(free_.at(tb).size()) < need_b) continue;
      candidates.push_back(Candidate{{{ta, fa}, {tb, need_b}}, 0, 0.0});
    }
  }
  if (candidates.empty()) {
    std::vector<NodeId> order = tors_;
    std::stable_sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
      return free_.at(x).size() > free_.at(y).size();
    });
    Candidate greedy;
    int need = request.workers;
    for (const NodeId tor : order) {
      const int got = std::min(need, static_cast<int>(free_.at(tor).size()));
      if (got > 0) {
        greedy.splits.emplace_back(tor, got);
        need -= got;
      }
      if (need == 0) break;
    }
    if (need > 0) {
      out.capacity_blocked = true;  // not enough free hosts anywhere
      return out;
    }
    candidates.push_back(std::move(greedy));
  }

  const Candidate* chosen = nullptr;
  if (config_.policy == AdmissionPolicyKind::kLocalityOnly) {
    chosen = &candidates.front();  // capacity is the only criterion
  } else {
    const Candidate* best = nullptr;
    for (Candidate& cand : candidates) {
      score(cand, request.comm_profile, salt, incumbents);
      // Fewest violated links first; ties broken by the component's worst
      // residual violation (strict < keeps the earliest candidate on exact
      // ties — deterministic rack order).
      if (!best || cand.incompatible_links < best->incompatible_links ||
          (cand.incompatible_links == best->incompatible_links &&
           cand.worst_violation < best->worst_violation)) {
        best = &cand;
      }
      if (best->incompatible_links == 0) break;
    }
    out.incompatible_links = best->incompatible_links;
    out.worst_violation = best->worst_violation;
    if (best->incompatible_links > 0) {
      return out;  // capacity exists, sharing doesn't: defer
    }
    chosen = best;
  }

  out.verdict = AdmissionOffer::Verdict::kAdmit;
  out.placement.spans_fabric = true;
  for (const auto& [tor, cnt] : chosen->splits) {
    const auto got = take(tor, cnt);
    out.placement.hosts.insert(out.placement.hosts.end(), got.begin(),
                               got.end());
  }
  return out;
}

}  // namespace ccml
