// The (job, link) interference graph: multi-bottleneck compatibility.
//
// The paper's unified circle decides compatibility of jobs contending on ONE
// link.  Real oversubscribed fat-trees contend on several links at once, and
// a spanning job's ring crosses multiple hops — so the cluster is a bipartite
// graph between jobs and fabric links (CASSINI §4's affinity graph).  Each
// link carries its own unified circle over the jobs crossing it, but a job
// has a single clock: it must use ONE rotation on every link it crosses.
//
// The solver here works in three stages:
//  1. Per-link local solves: each shared link's circle is solved
//     independently (optionally through an injected hook, so callers can
//     route the group through a signature cache).
//  2. Rotation propagation: a link's local solution is invariant under
//     rotating every member together, so each link L contributes one free
//     offset delta_L with the constraint  g_j == r^L_j + delta_L (mod P_j)
//     for every member j.  A BFS over the bipartite graph fixes the deltas
//     along a spanning tree and derives one global rotation g_j per job;
//     every non-tree incidence is a cycle whose implied rotation must agree
//     with the assigned one — a mismatch beyond the tolerance is recorded as
//     a RotationConflict and scored by its circular distance.
//  3. Joint refinement: when the propagated assignment still violates some
//     link (conflicting cycles, or clamped circles), a deterministic
//     annealing walk over the global rotations minimizes the summed
//     per-link violation.
//
// Compatibility is judged on the *global* assignment: the component is
// compatible iff every link's circle is violation-free under the consistent
// rotations.  With a single shared link this reduces exactly to the
// single-circle solver.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/profile.h"
#include "core/solver.h"
#include "util/time.h"

namespace ccml {

/// One job-side vertex of the bipartite graph: the communication profile
/// plus the fabric links its traffic crosses.  Links are opaque int32 keys
/// (LinkId::value at the call sites — core stays network-agnostic), sorted
/// ascending and deduplicated by the caller (solve() normalizes defensively).
struct GraphJob {
  CommProfile profile;
  std::vector<std::int32_t> links;
};

struct InterferenceGraphOptions {
  /// Per-link circle solves and the violation evaluation mode.
  SolverOptions solver;

  /// Two implied rotations for the job closing a cycle are consistent when
  /// their circular distance on the job's own period is at most this (the
  /// same order as the circle quantum: finer disagreements are noise).
  Duration consistency_tolerance = Duration::millis(1);

  /// Joint annealing over the global rotations when propagation leaves
  /// residual violation.  Deterministic (seeded from solver.seed).
  bool refine = true;
  int refine_iterations = 20'000;
};

/// Verdict for one shared link under the final (consistent) rotations.
struct LinkVerdict {
  std::int32_t link = -1;
  std::vector<std::size_t> jobs;     ///< indices into the solve() input
  double violation_fraction = 0.0;   ///< on this link's own unified circle
  bool locally_compatible = false;   ///< the link's independent solve verdict
  bool circle_exact = true;
};

/// A cycle in the bipartite graph whose locally-optimal rotations could not
/// be made globally consistent: closing the cycle through `link` implies a
/// rotation for `job` that differs from its assigned one by `mismatch`
/// (shortest circular distance on the job's own period).
struct RotationConflict {
  std::size_t job = 0;
  std::int32_t link = -1;
  Duration mismatch;
};

struct GraphResult {
  /// True when every shared link's circle is violation-free under the
  /// returned (per-job, globally consistent) rotations.
  bool compatible = false;
  /// True when the verdict is certain: a zero-violation assignment on exact
  /// circles is its own witness; an incompatible verdict is proven only when
  /// some link's independent solve proved its group infeasible.
  bool proven = false;
  /// One rotation per job — the same rotation applies on every link the job
  /// crosses (the consistency invariant; asserted in tests).
  std::vector<Duration> rotations;
  /// Connected-component label per job: the smallest job index reachable
  /// through shared links (jobs sharing no link keep their own index).
  std::vector<std::size_t> component;
  std::vector<LinkVerdict> links;        ///< shared links, ascending key
  std::vector<RotationConflict> conflicts;
  double worst_violation = 0.0;          ///< max over shared links
  double total_violation = 0.0;          ///< sum over shared links
  bool circle_exact = true;              ///< no link's circle was clamped
  std::uint64_t link_solves = 0;         ///< per-link solver invocations
  /// Per-link scorings of a global assignment (warm-start check,
  /// propagation verdicts and refinement steps); per-link solves count
  /// their own in SolverResult::evaluations.
  std::uint64_t evaluations = 0;
};

class InterferenceGraph {
 public:
  explicit InterferenceGraph(InterferenceGraphOptions options = {});

  /// Replaces the per-link circle solve.  `warm_start` is either empty or
  /// one rotation per profile; the default routes to CompatibilitySolver.
  /// Callers inject an IncrementalResolver-backed hook so identical sharing
  /// groups (across links, components, and churn events) hit one cache.
  using LinkSolve = std::function<SolverResult(
      std::span<const CommProfile>, std::vector<Duration> warm_start)>;
  void set_link_solver(LinkSolve solve) { link_solve_ = std::move(solve); }

  /// Solves the whole graph (BFS restarts per connected component).  When
  /// `warm_start` is sized like `jobs` and already violation-free on every
  /// shared link, it is returned as the witness without any per-link solve —
  /// the component-level analog of SolverOptions::warm_start.
  GraphResult solve(std::span<const GraphJob> jobs,
                    std::span<const Duration> warm_start = {}) const;

  /// Connected-component label per job (smallest member index), from shared
  /// links alone.  Used by callers that partition work (and caches) by
  /// component without solving.
  static std::vector<std::size_t> components(std::span<const GraphJob> jobs);

  /// Canonical cache key of a job set: per-job period/demand/arc geometry
  /// plus the bipartite structure with links renumbered by first appearance
  /// — two structurally identical components at different fabric locations
  /// (or times) share one key.  Order-sensitive like
  /// IncrementalResolver::signature.
  static std::string component_signature(std::span<const GraphJob> jobs);

  const InterferenceGraphOptions& options() const { return options_; }

 private:
  InterferenceGraphOptions options_;
  LinkSolve link_solve_;
};

/// Drops from every job's link set the links that cannot actually be
/// contended: a link survives only when the aggregate communication demand
/// of the jobs crossing it exceeds `capacity(link)`.  A link faster than
/// its offered load is never a bottleneck, so it contributes no
/// interference edge — on a 1:1 fabric the graph dissolves entirely (the
/// paper's single-bottleneck regime falls out as the special case), while
/// an oversubscribed fabric keeps exactly its thin links.  Deterministic;
/// `capacity` is typically the link's nominal rate times the goodput
/// factor.
void prune_uncontended_links(
    std::span<GraphJob> jobs,
    const std::function<Rate(std::int32_t)>& capacity);

}  // namespace ccml
