#include "core/interference_graph.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>

#include "util/circular.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace ccml {

namespace {

/// Shortest circular distance between two points on a circle of `perimeter`.
Duration circular_distance(Duration a, Duration b, Duration perimeter) {
  const Duration d = wrap_to_circle(a - b, perimeter);
  return std::min(d, perimeter - d);
}

/// Sorted, deduplicated copy of a job's link keys (defensive: callers are
/// expected to pass them sorted already).
std::vector<std::int32_t> normalized_links(const GraphJob& job) {
  std::vector<std::int32_t> links = job.links;
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

struct SharedLink {
  std::int32_t key = -1;
  std::vector<std::size_t> jobs;      // ascending input indices
  std::vector<CommProfile> profiles;  // parallel to jobs
  UnifiedCircle circle;
  SolverResult local;                 // the link's independent solve
};

std::map<std::int32_t, std::vector<std::size_t>> link_members(
    std::span<const GraphJob> jobs) {
  std::map<std::int32_t, std::vector<std::size_t>> members;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const std::int32_t key : normalized_links(jobs[j])) {
      members[key].push_back(j);
    }
  }
  return members;
}

std::vector<std::size_t> component_labels(
    std::span<const GraphJob> jobs,
    const std::map<std::int32_t, std::vector<std::size_t>>& members) {
  UnionFind uf(jobs.size());
  for (const auto& [key, js] : members) {
    for (std::size_t k = 1; k < js.size(); ++k) uf.unite(js[0], js[k]);
  }
  // Label = smallest member index, which is stable across link renumbering.
  std::map<std::size_t, std::size_t> smallest;  // root -> min member
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t root = uf.find(j);
    auto [it, fresh] = smallest.emplace(root, j);
    if (!fresh) it->second = std::min(it->second, j);
  }
  std::vector<std::size_t> label(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) label[j] = smallest[uf.find(j)];
  return label;
}

}  // namespace

InterferenceGraph::InterferenceGraph(InterferenceGraphOptions options)
    : options_(std::move(options)) {}

std::vector<std::size_t> InterferenceGraph::components(
    std::span<const GraphJob> jobs) {
  return component_labels(jobs, link_members(jobs));
}

void prune_uncontended_links(
    std::span<GraphJob> jobs,
    const std::function<Rate(std::int32_t)>& capacity) {
  std::map<std::int32_t, Rate> offered;  // link -> aggregate demand
  for (const GraphJob& j : jobs) {
    for (const std::int32_t link : j.links) {
      auto [it, fresh] = offered.try_emplace(link, Rate::zero());
      it->second += j.profile.demand;
    }
  }
  for (GraphJob& j : jobs) {
    std::erase_if(j.links, [&](std::int32_t link) {
      return !(capacity(link) < offered.at(link));
    });
  }
}

std::string InterferenceGraph::component_signature(
    std::span<const GraphJob> jobs) {
  std::string sig;
  sig.reserve(jobs.size() * 64);
  std::map<std::int32_t, int> dense;  // link key -> first-appearance index
  char buf[64];
  for (const GraphJob& job : jobs) {
    const CommProfile& p = job.profile;
    std::snprintf(buf, sizeof(buf), "p%" PRId64 "d%.0f", p.period.ns(),
                  p.demand.bits_per_sec());
    sig += buf;
    for (const Arc& arc : p.arcs) {
      std::snprintf(buf, sizeof(buf), "a%" PRId64 "+%" PRId64, arc.start.ns(),
                    arc.length.ns());
      sig += buf;
    }
    sig += 'L';
    bool first = true;
    for (const std::int32_t key : normalized_links(job)) {
      const auto [it, fresh] =
          dense.emplace(key, static_cast<int>(dense.size()));
      std::snprintf(buf, sizeof(buf), first ? "%d" : ",%d", it->second);
      sig += buf;
      first = false;
    }
    sig += ';';
  }
  return sig;
}

GraphResult InterferenceGraph::solve(std::span<const GraphJob> jobs,
                                     std::span<const Duration> warm_start) const {
  const std::size_t n = jobs.size();
  GraphResult out;
  out.rotations.assign(n, Duration::zero());
  const auto members = link_members(jobs);
  out.component = component_labels(jobs, members);

  // Materialize the shared links (>= 2 members); singleton links can never
  // violate and need no circle.
  std::vector<SharedLink> shared;
  std::vector<std::vector<std::size_t>> job_shared(n);  // job -> shared idx
  for (const auto& [key, js] : members) {
    if (js.size() < 2) continue;
    std::vector<CommProfile> profiles;
    profiles.reserve(js.size());
    for (const std::size_t j : js) profiles.push_back(jobs[j].profile);
    UnifiedCircle circle(profiles, options_.solver.circle);
    for (const std::size_t j : js) job_shared[j].push_back(shared.size());
    shared.push_back(SharedLink{key, js, std::move(profiles),
                                std::move(circle), SolverResult{}});
  }

  // Per-link scoring: the link's members' global rotations wrapped onto
  // their own periods, scored on the link's circle.
  const CircleLimit limit = violation_limit(options_.solver);
  std::vector<Duration> rots;
  const auto link_rotations = [&](const SharedLink& sl,
                                  std::span<const Duration> global) {
    rots.clear();
    for (std::size_t k = 0; k < sl.jobs.size(); ++k) {
      rots.push_back(
          wrap_to_circle(global[sl.jobs[k]], sl.profiles[k].period));
    }
    return std::span<const Duration>(rots);
  };
  const auto evaluate_link = [&](const SharedLink& sl,
                                 std::span<const Duration> global) {
    ++out.evaluations;
    return static_cast<double>(
               sl.circle.sweep(link_rotations(sl, global), limit).violated_ns) /
           static_cast<double>(sl.circle.perimeter().ns());
  };

  const auto finalize = [&](std::span<const Duration> global) {
    out.links.clear();
    out.worst_violation = 0.0;
    out.total_violation = 0.0;
    for (const SharedLink& sl : shared) {
      LinkVerdict v;
      v.link = sl.key;
      v.jobs = sl.jobs;
      v.violation_fraction = evaluate_link(sl, global);
      v.locally_compatible = sl.local.compatible;
      v.circle_exact = sl.circle.exact();
      out.worst_violation = std::max(out.worst_violation, v.violation_fraction);
      out.total_violation += v.violation_fraction;
      out.links.push_back(std::move(v));
    }
    out.compatible = out.worst_violation == 0.0;
  };

  if (shared.empty()) {
    // No sharing anywhere: trivially compatible at rotation zero.
    out.compatible = true;
    out.proven = true;
    return out;
  }

  // Component-level warm start: a violation-free incumbent assignment is a
  // witness of compatibility — no per-link solve needed.
  if (warm_start.size() == n) {
    std::vector<Duration> warm(n);
    for (std::size_t j = 0; j < n; ++j) {
      warm[j] = wrap_to_circle(warm_start[j], jobs[j].profile.period);
    }
    double worst = 0.0;
    for (const SharedLink& sl : shared) {
      worst = std::max(worst, evaluate_link(sl, warm));
      if (worst > 0.0) break;
    }
    if (worst == 0.0) {
      out.rotations = std::move(warm);
      finalize(out.rotations);
      // No local solve ran; the witness stands in for each link's verdict.
      for (LinkVerdict& v : out.links) v.locally_compatible = true;
      out.circle_exact =
          std::all_of(shared.begin(), shared.end(),
                      [](const SharedLink& sl) { return sl.circle.exact(); });
      out.proven = out.circle_exact;
      return out;
    }
  }

  // Stage 1: per-link local solves (through the hook when installed, so
  // identical groups hit the caller's signature cache).
  bool any_proven_incompatible = false;
  for (SharedLink& sl : shared) {
    std::vector<Duration> warm;
    if (warm_start.size() == n) {
      warm.reserve(sl.jobs.size());
      for (std::size_t k = 0; k < sl.jobs.size(); ++k) {
        warm.push_back(
            wrap_to_circle(warm_start[sl.jobs[k]], sl.profiles[k].period));
      }
    }
    sl.local = link_solve_
                   ? link_solve_(sl.profiles, std::move(warm))
                   : [&] {
                       SolverOptions o = options_.solver;
                       o.warm_start = std::move(warm);
                       return CompatibilitySolver(std::move(o))
                           .solve(sl.profiles);
                     }();
    ++out.link_solves;
    out.circle_exact = out.circle_exact && sl.circle.exact();
    if (!sl.local.compatible && sl.local.proven) any_proven_incompatible = true;
  }

  // Stage 2: rotation propagation over a BFS spanning tree.  Each link owns
  // one offset delta (its local solution rotated rigidly); each job gets one
  // global rotation.  Back edges are consistency-checked and scored.
  std::vector<char> assigned(n, 0);
  std::vector<char> expanded(shared.size(), 0);
  std::vector<Duration> global(n, Duration::zero());
  const auto local_rotation = [&](const SharedLink& sl, std::size_t job) {
    const auto it = std::lower_bound(sl.jobs.begin(), sl.jobs.end(), job);
    const auto k = static_cast<std::size_t>(it - sl.jobs.begin());
    return sl.local.rotations.size() == sl.jobs.size() ? sl.local.rotations[k]
                                                       : Duration::zero();
  };
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (assigned[seed] || job_shared[seed].empty()) continue;
    assigned[seed] = 1;  // pinned at zero; solutions are shift-invariant
    std::deque<std::size_t> frontier{seed};
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop_front();
      for (const std::size_t li : job_shared[u]) {
        if (expanded[li]) continue;
        expanded[li] = 1;
        SharedLink& sl = shared[li];
        // Anchor the link's offset from the member that reached it.
        const Duration delta = global[u] - local_rotation(sl, u);
        for (std::size_t k = 0; k < sl.jobs.size(); ++k) {
          const std::size_t v = sl.jobs[k];
          const Duration period = sl.profiles[k].period;
          const Duration implied =
              wrap_to_circle(sl.local.rotations.size() == sl.jobs.size()
                                 ? sl.local.rotations[k] + delta
                                 : delta,
                             period);
          if (!assigned[v]) {
            assigned[v] = 1;
            global[v] = implied;
            frontier.push_back(v);
          } else {
            const Duration mismatch =
                circular_distance(global[v], implied, period);
            if (mismatch > options_.consistency_tolerance) {
              out.conflicts.push_back(RotationConflict{v, sl.key, mismatch});
            }
          }
        }
      }
    }
  }

  finalize(global);

  // Stage 3: joint refinement.  When some link is provably infeasible on its
  // own no rotation assignment can fix it, so skip the walk.
  if (!out.compatible && options_.refine && !any_proven_incompatible &&
      options_.refine_iterations > 0) {
    std::vector<std::size_t> movable;
    for (std::size_t j = 0; j < n; ++j) {
      if (!job_shared[j].empty()) movable.push_back(j);
    }
    std::vector<double> link_viol(shared.size(), 0.0);
    double current = 0.0;
    for (std::size_t li = 0; li < shared.size(); ++li) {
      link_viol[li] = evaluate_link(shared[li], global);
      current += link_viol[li];
    }
    // A move re-scores only the moved job on each of its links.
    std::vector<CircleScorer> scorers;
    scorers.reserve(shared.size());
    for (const SharedLink& sl : shared) scorers.emplace_back(sl.circle, limit);
    const auto rescore = [&](std::size_t li, std::size_t job) {
      const SharedLink& sl = shared[li];
      const auto k = static_cast<std::size_t>(
          std::lower_bound(sl.jobs.begin(), sl.jobs.end(), job) -
          sl.jobs.begin());
      return static_cast<double>(
                 scorers[li].violated_ns(link_rotations(sl, global), k)) /
             static_cast<double>(sl.circle.perimeter().ns());
    };
    std::vector<Duration> best = global;
    double best_total = current;
    Rng rng(options_.solver.seed);
    const int iters = options_.refine_iterations;
    for (int i = 0; i < iters && best_total > 0.0; ++i) {
      const double temp = 0.3 * (1.0 - static_cast<double>(i) / iters) + 1e-4;
      const std::size_t j = movable[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(movable.size()) - 1))];
      const Duration period = jobs[j].profile.period;
      const Duration old = global[j];
      const double sigma = std::max(0.02, temp) * period.to_seconds();
      global[j] = wrap_to_circle(
          old + Duration::from_seconds_f(rng.gaussian(0.0, sigma)), period);
      double delta_obj = 0.0;
      std::vector<double> touched(job_shared[j].size());
      for (std::size_t t = 0; t < job_shared[j].size(); ++t) {
        touched[t] = rescore(job_shared[j][t], j);
        delta_obj += touched[t] - link_viol[job_shared[j][t]];
      }
      if (delta_obj <= 0.0 ||
          rng.chance(std::exp(-delta_obj / std::max(temp, 1e-6)))) {
        current += delta_obj;
        for (std::size_t t = 0; t < job_shared[j].size(); ++t) {
          link_viol[job_shared[j][t]] = touched[t];
        }
        if (current < best_total) {
          best_total = current;
          best = global;
        }
      } else {
        global[j] = old;
      }
    }
    for (const CircleScorer& sc : scorers) out.evaluations += sc.evaluations();
    global = std::move(best);
    finalize(global);
  }

  out.rotations.assign(global.begin(), global.end());
  // A zero-violation assignment on exact circles is its own certificate; an
  // incompatible verdict is proven only via a link's local refutation.
  out.proven = out.compatible ? out.circle_exact : any_proven_incompatible;
  return out;
}

SolverResult CompatibilitySolver::solve_multi(
    std::span<const CommProfile> jobs,
    std::span<const std::vector<std::int32_t>> job_links) const {
  InterferenceGraphOptions opts;
  opts.solver = options_;
  std::vector<GraphJob> graph_jobs;
  graph_jobs.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    graph_jobs.push_back(GraphJob{
        jobs[j], j < job_links.size() ? job_links[j]
                                      : std::vector<std::int32_t>{}});
  }
  const GraphResult g = InterferenceGraph(std::move(opts)).solve(graph_jobs);
  SolverResult out;
  out.compatible = g.compatible;
  out.proven = g.proven;
  out.rotations = g.rotations;
  out.violation_fraction = g.worst_violation;
  out.overlap_fraction = g.worst_violation;
  out.circle_exact = g.circle_exact;
  return out;
}

}  // namespace ccml
