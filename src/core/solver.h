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
// the search budget is exhausted or no exact solution exists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/profile.h"
#include "core/unified_circle.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct SolverOptions {
  /// Sectors the unified circle is discretized into.  More sectors = finer
  /// rotations and tighter feasibility checking, at higher search cost.
  int sectors = 720;

  /// Constraint mode.
  enum class Mode {
    kCount,      ///< at most `max_concurrent` jobs per sector (paper default: 1)
    kBandwidth,  ///< sum of job demands per sector <= link_capacity
  };
  Mode mode = Mode::kCount;
  int max_concurrent = 1;
  Rate link_capacity = Rate::gbps(50);

  /// DFS node budget before falling back to annealing.
  std::uint64_t search_budget = 4'000'000;

  /// Annealing fallback (finds minimum-overlap rotations when exact search
  /// fails or is infeasible).
  bool anneal_fallback = true;
  int anneal_iterations = 20'000;
  std::uint64_t seed = 42;

  /// After a compatible solution is found (count mode, cap 1), spread the
  /// jobs' rotations to maximize guard bands between communication windows.
  /// The raw DFS tends to return back-to-back packings; centering each job
  /// in its feasible range makes downstream flow schedules robust to
  /// iteration-time jitter (see bench/ablation_compute_jitter).
  bool spread_slack = true;
  int spread_rounds = 8;

  /// GPU multi-tenancy (paper §5): jobs with the same non-negative group id
  /// time-share a GPU, so their *compute* phases must not overlap either.
  /// One entry per job (parallel to the solve() input); -1 = dedicated GPU.
  /// Empty = all dedicated.  Only honored in count mode with cap 1.
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
  /// False when the unified circle clamped its perimeter (the periods' LCM
  /// exceeded the cap): jobs then only approximately repeat around the
  /// circle, so the verdict is best-effort and never reported `proven`.
  bool circle_exact = true;
};

class CompatibilitySolver {
 public:
  explicit CompatibilitySolver(SolverOptions options = {});

  /// Decides compatibility of jobs contending on one link and returns the
  /// best rotation for each.
  SolverResult solve(std::span<const CommProfile> jobs) const;

  /// Multi-link entry point (CASSINI-style): the jobs contend on several
  /// links at once and `job_links[j]` names the links job j's traffic
  /// crosses (opaque int32 keys).  Returns ONE rotation per job, consistent
  /// across every link it crosses, solved via the (job, link) interference
  /// graph; `violation_fraction` is the worst per-link residual.  With every
  /// job on one common link this reduces to solve().  Defined in
  /// interference_graph.cpp.
  SolverResult solve_multi(
      std::span<const CommProfile> jobs,
      std::span<const std::vector<std::int32_t>> job_links) const;

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

/// Fraction of `circle` where the constraint selected by `opts` (count or
/// bandwidth) is violated under the given per-job rotations.  Shared by the
/// solver's search and the interference graph's joint evaluation of a global
/// rotation assignment (core/interference_graph.h).
double circle_violation_fraction(const UnifiedCircle& circle,
                                 std::span<const Duration> rotations,
                                 const SolverOptions& opts);

}  // namespace ccml
