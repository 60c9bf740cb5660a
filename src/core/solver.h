// The paper's optimization formulation (§3, "Optimization formulation"):
// discretize the unified circle into sectors and search for per-job rotation
// angles such that no sector has more than one job communicating (or, in
// bandwidth mode, such that aggregate demand never exceeds link capacity).
// If such rotations exist the jobs are *fully compatible*.
//
// The paper omits the formulation's details; we implement it as exact
// discrete search — depth-first over per-job rotation candidates with
// sector-occupancy pruning (jobs ordered by descending communication
// fraction, first job pinned at rotation 0 to break rotational symmetry) —
// with a simulated-annealing fallback that minimizes residual overlap when
// the search budget is exhausted or no exact solution exists.  A compatible
// count-mode solution (without GPU groups) is then spread: each job is
// recentered in its feasible slide range to widen the guard bands.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/profile.h"
#include "core/unified_circle.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct SolverOptions {
  /// Sectors the unified circle is discretized into.  More sectors = finer
  /// rotations and tighter feasibility checking, at higher search cost.
  int sectors = 720;

  /// Constraint mode.
  enum class Mode {
    kCount,      ///< at most one job communicating per sector (paper §3)
    kBandwidth,  ///< sum of job demands per sector <= link_capacity
  };
  Mode mode = Mode::kCount;
  Rate link_capacity = Rate::gbps(50);

  /// DFS node budget before falling back to annealing.
  std::uint64_t search_budget = 4'000'000;

  /// Steps of the annealing fallback, which finds minimum-violation
  /// rotations when exact search fails or is infeasible.
  int anneal_iterations = 20'000;
  std::uint64_t seed = 42;

  /// GPU multi-tenancy (paper §5): jobs with the same non-negative group id
  /// time-share a GPU, so their *compute* phases must not overlap either.
  /// One entry per job (parallel to the solve() input); -1 = dedicated GPU.
  /// Empty = all dedicated.  Count mode only: the solver refuses a shared
  /// group in bandwidth mode, whose sector search cannot honor it.
  std::vector<int> gpu_groups;

  /// Optional warm start: rotations carried over from a previous solve of a
  /// related group (e.g. the incumbents that remain after a departure).  One
  /// entry per job, parallel to the solve() input; any other size is
  /// ignored.  When the warm start is violation-free it is returned
  /// immediately (a zero-violation witness proves compatibility without
  /// searching); otherwise it seeds the annealing fallback's starting point.
  std::vector<Duration> warm_start;

  UnifiedCircleOptions circle;
};

struct SolverResult {
  /// True when rotations with zero constraint violation were found.
  bool compatible = false;
  /// True when the DFS proved infeasibility (budget not exhausted); false
  /// compatible + false proven means "not found within budget".
  bool proven = false;
  /// Per-job counter-clockwise rotations (same order as the input span).
  std::vector<Duration> rotations;
  /// Residual violation under the returned rotations: fraction of the circle
  /// where the constraint is violated (0 when compatible).
  double violation_fraction = 1.0;
  /// Fraction of the circle where >= 2 jobs communicate (diagnostic).
  double overlap_fraction = 1.0;
  std::uint64_t nodes_explored = 0;
  /// Rotation assignments scored (warm-start check and annealing steps);
  /// a deterministic work counter.
  std::uint64_t evaluations = 0;
  /// Circle segments those scorings read (CircleScorer::segments_walked);
  /// a deterministic work counter.
  std::uint64_t segments_walked = 0;
  /// False when the unified circle clamped its perimeter (the periods' LCM
  /// exceeded the cap): jobs then only approximately repeat around the
  /// circle, so the verdict is best-effort and never reported `proven`.
  bool circle_exact = true;
};

class CompatibilitySolver {
 public:
  /// Throws std::invalid_argument for bandwidth mode with a shared GPU group
  /// (any gpu_groups entry >= 0).
  explicit CompatibilitySolver(SolverOptions options = {});

  /// Decides compatibility of jobs contending on one link and returns the
  /// best rotation for each.
  SolverResult solve(std::span<const CommProfile> jobs) const;

  /// Quick analytic necessary condition: the total communication time per
  /// unified revolution cannot exceed the revolution (count mode) /
  /// capacity-weighted equivalent (bandwidth mode).  A `false` here proves
  /// incompatibility without searching.
  bool necessary_condition(std::span<const CommProfile> jobs) const;

  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

/// The sweep limit that scores `opts`'s constraint (count or bandwidth).
CircleLimit violation_limit(const SolverOptions& opts);

/// One annealing step's outcome: the objective's change and its value if
/// the move is kept.
struct AnnealMove {
  double delta;
  double value;
};

/// The annealing walk behind the solver's fallback and the interference
/// graph's joint refinement.  Starting from `rotations`, whose objective is
/// `value`, each step moves one job of `movable` by a Gaussian scaled to its
/// period (`periods[j]`) and to the cooling temperature, asks
/// `rescore(j, value)` for the move's AnnealMove, and keeps the move by the
/// Metropolis test (then calls `commit(j)`) or restores the job.  Leaves the
/// best rotations seen in `rotations` and returns their value; stops right
/// after the best reaches zero.  Deterministic in `seed`.
template <class Rescore, class Commit>
double anneal(std::vector<Duration>& rotations,
              std::span<const std::size_t> movable,
              std::span<const Duration> periods, double value,
              std::uint64_t seed, int iterations, Rescore&& rescore,
              Commit&& commit) {
  std::vector<Duration> best = rotations;
  double best_value = value;
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const double temp =
        0.3 * (1.0 - static_cast<double>(i) / iterations) + 1e-4;
    const std::size_t j = movable[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(movable.size()) - 1))];
    const Duration old = rotations[j];
    const double sigma = std::max(0.02, temp) * periods[j].to_seconds();
    rotations[j] = wrap_to_circle(
        old + Duration::from_seconds_f(rng.gaussian(0.0, sigma)), periods[j]);
    const AnnealMove move = rescore(j, value);
    if (move.delta <= 0.0 ||
        rng.chance(std::exp(-move.delta / std::max(temp, 1e-6)))) {
      commit(j);
      value = move.value;
      if (value < best_value) {
        best_value = value;
        best = rotations;
        if (best_value <= 0.0) break;
      }
    } else {
      rotations[j] = old;
    }
  }
  rotations = std::move(best);
  return best_value;
}

}  // namespace ccml
