#include "core/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>

#include "util/rng.h"

namespace ccml {

CircleLimit violation_limit(const SolverOptions& opts) {
  CircleLimit limit;
  limit.max_count = opts.max_concurrent;
  limit.bandwidth = opts.mode == SolverOptions::Mode::kBandwidth;
  limit.max_demand_bps = opts.link_capacity.bits_per_sec() * (1.0 + 1e-9);
  return limit;
}

double circle_violation_fraction(const UnifiedCircle& circle,
                                 std::span<const Duration> rotations,
                                 const SolverOptions& opts) {
  return static_cast<double>(
             circle.sweep(rotations, violation_limit(opts)).violated_ns) /
         static_cast<double>(circle.perimeter().ns());
}

namespace {

/// Compute-phase coverage of job j on the unified circle: the complement of
/// its comm arcs within its own period, replicated (used by the GPU
/// multi-tenancy constraint).
CircularIntervalSet compute_arcs(const UnifiedCircle& circle, std::size_t j,
                                 Duration rotation) {
  const CommProfile& job = circle.job(j);
  CircularIntervalSet own(job.period);
  for (const Arc& a : job.arcs) own.add(a);
  const CircularIntervalSet comp = own.complement();
  CircularIntervalSet out(circle.perimeter());
  const std::int64_t reps = circle.repetitions(j);
  for (std::int64_t k = 0; k < reps; ++k) {
    for (const auto& [lo, hi] : comp.segments()) {
      out.add(Arc{lo + rotation + job.period * k, hi - lo});
    }
  }
  return out;
}

/// Fraction of the circle where same-GPU jobs' compute phases collide.
double gpu_violation_fraction(const UnifiedCircle& circle,
                              std::span<const Duration> rotations,
                              const std::vector<int>& groups) {
  if (groups.empty()) return 0.0;
  Duration overlapped = Duration::zero();
  for (std::size_t a = 0; a < circle.job_count(); ++a) {
    if (groups[a] < 0) continue;
    for (std::size_t b = a + 1; b < circle.job_count(); ++b) {
      if (groups[b] != groups[a]) continue;
      overlapped += CircularIntervalSet::overlap_length(
          compute_arcs(circle, a, rotations[a]),
          compute_arcs(circle, b, rotations[b]));
    }
  }
  return static_cast<double>(overlapped.ns()) /
         static_cast<double>(circle.perimeter().ns());
}

/// Coordinate-descent slack spreading: repeatedly recenters each job's
/// rotation within its feasible slide range (holding the others fixed).
/// Preserves zero overlap by construction and converges toward a placement
/// with balanced guard bands between communication windows.
std::vector<Duration> spread_slack_rotations(const UnifiedCircle& circle,
                                             std::vector<Duration> rotations,
                                             int rounds) {
  const std::size_t n = circle.job_count();
  if (n < 2) return rotations;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t j = 0; j < n; ++j) {
      // Equal room on both sides once shifted by half the difference (zero
      // when either side has no arcs).
      const SlideRoom room = circle.slide_room(rotations, j);
      const Duration shift = (room.forward - room.backward) / 2;
      if (shift.ns() != 0) {
        rotations[j] =
            wrap_to_circle(rotations[j] + shift, circle.job(j).period);
      }
    }
  }
  return rotations;
}

/// CompatibilitySolver::necessary_condition on an already built circle.
bool passes_necessary_condition(const UnifiedCircle& circle,
                                const SolverOptions& options) {
  const double L = static_cast<double>(circle.perimeter().ns());
  if (options.mode == SolverOptions::Mode::kCount) {
    double total = 0.0;
    for (std::size_t j = 0; j < circle.job_count(); ++j) {
      total += static_cast<double>(circle.job(j).comm_time().ns()) *
               static_cast<double>(circle.repetitions(j));
    }
    return total <= L * options.max_concurrent * (1.0 + 1e-9);
  }
  double bit_budget = options.link_capacity.bits_per_sec() * L * 1e-9;
  double demand_bits = 0.0;
  for (std::size_t j = 0; j < circle.job_count(); ++j) {
    const CommProfile& job = circle.job(j);
    demand_bits += job.demand.bits_per_sec() *
                   static_cast<double>(job.comm_time().ns()) * 1e-9 *
                   static_cast<double>(circle.repetitions(j));
  }
  return demand_bits <= bit_budget * (1.0 + 1e-9);
}

/// Candidate rotations for job j: multiples of the sector length within the
/// job's own period (rotating by a full period reproduces the same pattern
/// on the unified circle).
std::vector<Duration> candidates_for(const UnifiedCircle& circle,
                                     std::size_t j, int sectors) {
  const Duration sector =
      Duration::nanos(std::max<std::int64_t>(1, circle.perimeter().ns() / sectors));
  const Duration period = circle.job(j).period;
  std::vector<Duration> out;
  for (Duration r = Duration::zero(); r < period; r += sector) {
    out.push_back(r);
  }
  if (out.empty()) out.push_back(Duration::zero());
  return out;
}

}  // namespace

CompatibilitySolver::CompatibilitySolver(SolverOptions options)
    : options_(options) {
  assert(options_.sectors > 0);
  assert(options_.max_concurrent >= 1);
}

bool CompatibilitySolver::necessary_condition(
    std::span<const CommProfile> jobs) const {
  return passes_necessary_condition(UnifiedCircle(jobs, options_.circle),
                                    options_);
}

SolverResult CompatibilitySolver::solve(
    std::span<const CommProfile> jobs) const {
  SolverResult result;
  assert(!jobs.empty());
  const UnifiedCircle circle(jobs, options_.circle);
  const std::size_t n = jobs.size();
  result.rotations.assign(n, Duration::zero());
  result.circle_exact = circle.exact();
  CircleScorer scorer(circle, violation_limit(options_));
  // On a clamped (inexact) circle the jobs do not truly repeat, so no
  // verdict derived from it is a proof; downgrade at every exit.
  const auto finalize = [&](SolverResult& r) -> SolverResult& {
    if (!r.circle_exact) r.proven = false;
    r.evaluations = scorer.evaluations();
    return r;
  };
  // Circle violation (as a fraction) plus the GPU multi-tenancy term.
  const double perimeter_ns = static_cast<double>(circle.perimeter().ns());
  const auto total_violation = [&](std::span<const Duration> r) {
    return static_cast<double>(scorer.violated_ns(r)) / perimeter_ns +
           gpu_violation_fraction(circle, r, options_.gpu_groups);
  };

  if (n == 1) {
    result.compatible = true;
    result.proven = true;
    result.violation_fraction = 0.0;
    result.overlap_fraction = 0.0;
    return finalize(result);
  }

  // Warm start: a violation-free incumbent assignment is a witness of
  // compatibility — return it without searching (nodes_explored stays 0, the
  // signal callers use to detect a warm-start hit).
  if (options_.warm_start.size() == n) {
    std::vector<Duration> warm(n);
    for (std::size_t j = 0; j < n; ++j) {
      warm[j] = wrap_to_circle(options_.warm_start[j], jobs[j].period);
    }
    if (total_violation(warm) == 0.0) {
      result.compatible = true;
      result.proven = true;
      result.rotations = std::move(warm);
      result.violation_fraction = 0.0;
      result.overlap_fraction = circle.overlap_fraction(result.rotations);
      return finalize(result);
    }
  }

  // Cheap analytic refutation first.
  const bool maybe = passes_necessary_condition(circle, options_);

  // Search order: heaviest communicators first (fail fast), original index
  // remembered for reporting.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return jobs[a].comm_time().ns() * circle.repetitions(a) >
           jobs[b].comm_time().ns() * circle.repetitions(b);
  });

  std::uint64_t explored = 0;
  bool budget_exhausted = false;

  if (maybe && options_.mode == SolverOptions::Mode::kCount &&
      options_.max_concurrent == 1) {
    // Exact DFS: maintain the union of placed jobs' communication arcs and
    // require each new placement to be point-wise disjoint from it.
    std::vector<Duration> chosen(n, Duration::zero());
    bool found = false;

    // Candidate rotations: the sector grid, plus "contact" rotations that
    // align an arc boundary of job j with a boundary of the occupied set.
    // Tight packings (e.g. two jobs whose comm phases exactly tile the
    // circle) are only reachable through contact rotations — the integer
    // sector grid misses them by rounding.
    auto candidates_with_contacts =
        [&](std::size_t j, const CircularIntervalSet& occupied) {
          std::vector<Duration> cands =
              candidates_for(circle, j, options_.sectors);
          const Duration period = circle.job(j).period;
          const std::int64_t reps = circle.repetitions(j);
          for (const auto& [lo, hi] : occupied.segments()) {
            for (std::int64_t k = 0; k < reps; ++k) {
              for (const Arc& a : circle.job(j).arcs) {
                const Duration start = a.start + period * k;
                const Duration end = start + a.length;
                // Arc start lands on a segment end; arc end on a segment
                // start.
                cands.push_back(wrap_to_circle(hi - start, period));
                cands.push_back(wrap_to_circle(lo - end, period));
              }
            }
          }
          std::sort(cands.begin(), cands.end());
          cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
          return cands;
        };

    // Per-GPU-group compute occupancy (multi-tenancy constraint, §5).
    const std::vector<int>& groups = options_.gpu_groups;
    const bool multi_tenant = !groups.empty();
    std::map<int, CircularIntervalSet> gpu_busy;

    // Depth-first placement.  The first (heaviest) job is pinned at rotation
    // zero: solutions are invariant under rotating everything together.
    auto dfs = [&](auto&& self, std::size_t depth,
                   const CircularIntervalSet& occupied) -> bool {
      if (depth == n) return true;
      const std::size_t j = order[depth];
      std::vector<Duration> cands =
          depth == 0 ? std::vector<Duration>{Duration::zero()}
                     : candidates_with_contacts(j, occupied);
      const int group = multi_tenant ? groups[j] : -1;
      if (depth == 0 && multi_tenant) {
        // The pinned job may still conflict on its GPU with later jobs; no
        // extra candidates needed, rotation 0 stays valid by symmetry.
      }
      for (const Duration r : cands) {
        if (++explored > options_.search_budget) {
          budget_exhausted = true;
          return false;
        }
        const CircularIntervalSet placed = circle.job_arcs(j, r);
        if (CircularIntervalSet::intersects(occupied, placed)) continue;
        std::optional<CircularIntervalSet> my_compute;
        if (group >= 0) {
          my_compute = compute_arcs(circle, j, r);
          const auto it = gpu_busy.find(group);
          if (it != gpu_busy.end() &&
              CircularIntervalSet::intersects(it->second, *my_compute)) {
            continue;
          }
        }
        chosen[j] = r;
        std::optional<CircularIntervalSet> saved;
        if (group >= 0) {
          const auto it = gpu_busy.find(group);
          if (it != gpu_busy.end()) {
            saved = it->second;
            it->second = CircularIntervalSet::unite(it->second, *my_compute);
          } else {
            gpu_busy.emplace(group, *my_compute);
          }
        }
        if (self(self, depth + 1,
                 CircularIntervalSet::unite(occupied, placed))) {
          return true;
        }
        if (group >= 0) {
          if (saved) {
            gpu_busy.find(group)->second = *saved;
          } else {
            gpu_busy.erase(group);
          }
        }
        if (budget_exhausted) return false;
      }
      return false;
    };

    found = dfs(dfs, 0, CircularIntervalSet(circle.perimeter()));
    result.nodes_explored = explored;
    if (found) {
      result.compatible = true;
      result.proven = true;
      result.rotations =
          options_.spread_slack && options_.gpu_groups.empty()
              ? spread_slack_rotations(circle, chosen, options_.spread_rounds)
              : chosen;
      result.violation_fraction = 0.0;
      result.overlap_fraction = circle.overlap_fraction(result.rotations);
      return finalize(result);
    }
    if (!budget_exhausted) {
      result.proven = true;  // exhaustive over the discretization
    }
  } else if (maybe) {
    // Generalized modes: DFS over sector-aligned rotations with a per-sector
    // occupancy array (count or demand).  Sector marking is conservative:
    // a job occupies every sector its arcs touch.
    const int S = options_.sectors;
    const std::int64_t L = circle.perimeter().ns();
    std::vector<CircleSegment> placed;
    auto sectors_of = [&](const std::vector<CircleSegment>& segs) {
      std::vector<int> touched;
      for (const auto& [lo, hi] : segs) {
        const auto first = lo * S / L;
        // hi is exclusive; the last touched sector contains hi-1.
        const auto last = (hi - 1) * S / L;
        for (std::int64_t s = first; s <= last && s < S; ++s) {
          touched.push_back(static_cast<int>(s));
        }
      }
      return touched;
    };
    std::vector<double> load(S, 0.0);
    std::vector<Duration> chosen(n, Duration::zero());
    const double cap = options_.mode == SolverOptions::Mode::kCount
                           ? static_cast<double>(options_.max_concurrent)
                           : options_.link_capacity.bits_per_sec();
    auto dfs = [&](auto&& self, std::size_t depth) -> bool {
      if (depth == n) return true;
      const std::size_t j = order[depth];
      const double unit = options_.mode == SolverOptions::Mode::kCount
                              ? 1.0
                              : circle.job(j).demand.bits_per_sec();
      const std::vector<Duration> cands =
          depth == 0 ? std::vector<Duration>{Duration::zero()}
                     : candidates_for(circle, j, options_.sectors);
      for (const Duration r : cands) {
        if (++explored > options_.search_budget) {
          budget_exhausted = true;
          return false;
        }
        placed.clear();
        circle.rotated_segments(j, r, placed);
        const auto touched = sectors_of(placed);
        bool ok = true;
        for (const int s : touched) {
          if (load[s] + unit > cap * (1.0 + 1e-9)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const int s : touched) load[s] += unit;
        chosen[j] = r;
        if (self(self, depth + 1)) return true;
        for (const int s : touched) load[s] -= unit;
        if (budget_exhausted) return false;
      }
      return false;
    };
    const bool found = dfs(dfs, 0);
    result.nodes_explored = explored;
    if (found) {
      result.compatible = true;
      result.proven = true;
      result.rotations = chosen;
      result.violation_fraction = 0.0;
      result.overlap_fraction = circle.overlap_fraction(result.rotations);
      return finalize(result);
    }
    // Conservative sector marking can reject feasible instances, so a failed
    // generalized DFS never *proves* incompatibility; fall through.
  } else {
    result.proven = true;  // necessary condition refuted compatibility
  }

  result.nodes_explored = explored;

  // Annealing fallback: minimize the violated fraction over continuous
  // rotations.  Also the best-effort answer for incompatible groups.  A warm
  // start (even a violated one) seeds the walk so incremental re-solves pick
  // up near the incumbent assignment.
  std::vector<Duration> rot(n, Duration::zero());
  if (options_.warm_start.size() == n) {
    for (std::size_t j = 0; j < n; ++j) {
      rot[j] = wrap_to_circle(options_.warm_start[j], jobs[j].period);
    }
  }
  double best_v = total_violation(rot);
  std::vector<Duration> best = rot;
  if (options_.anneal_fallback && n > 1) {
    Rng rng(options_.seed);
    double cur_v = best_v;
    const int iters = options_.anneal_iterations;
    for (int i = 0; i < iters; ++i) {
      const double temp =
          0.3 * (1.0 - static_cast<double>(i) / iters) + 1e-4;
      const std::size_t j =
          1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      const std::size_t jj = order[j];
      const Duration period = circle.job(jj).period;
      const Duration old = rot[jj];
      const double sigma = std::max(0.02, temp) * period.to_seconds();
      Duration next = old + Duration::from_seconds_f(rng.gaussian(0.0, sigma));
      next = wrap_to_circle(next, period);
      rot[jj] = next;
      // Only job jj moved: re-score it against the others' depth profile.
      const double v =
          static_cast<double>(scorer.violated_ns(rot, jj)) / perimeter_ns +
          gpu_violation_fraction(circle, rot, options_.gpu_groups);
      const double delta = v - cur_v;
      if (delta <= 0.0 || rng.chance(std::exp(-delta / std::max(temp, 1e-6)))) {
        cur_v = v;
        if (v < best_v) {
          best_v = v;
          best = rot;
          if (best_v == 0.0) break;
        }
      } else {
        rot[jj] = old;
      }
    }
  }
  result.rotations = best;
  result.violation_fraction = best_v;
  result.overlap_fraction = circle.overlap_fraction(best);
  if (best_v == 0.0) {
    result.compatible = true;
    result.proven = true;
  }
  return finalize(result);
}

}  // namespace ccml
