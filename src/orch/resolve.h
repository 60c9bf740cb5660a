// Incremental re-solving for the online orchestrator.
//
// Every admission or departure changes which jobs share which fabric links,
// and naively re-running the CompatibilitySolver on every sharing group after
// every churn event is the orchestrator's dominant cost.  Two observations
// make it cheap:
//  * Most churn events leave most links' sharing groups untouched.  The
//    resolver caches SolverResults keyed by a canonical signature of the
//    group's communication profiles, so an unchanged group — or an identical
//    group appearing on another link or at another time — is answered
//    without searching.
//  * When a group shrinks (a departure), the surviving incumbents' existing
//    rotations are usually still violation-free.  Passing them as a warm
//    start lets the solver certify compatibility from the witness alone
//    (SolverOptions::warm_start), skipping the DFS entirely.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/interference_graph.h"
#include "core/profile.h"
#include "core/solver.h"

namespace ccml {

struct ResolveStats {
  std::uint64_t solves = 0;           ///< groups actually sent to the solver
  std::uint64_t cache_hits = 0;       ///< groups answered from the cache
  std::uint64_t warm_start_hits = 0;  ///< solves certified by the warm start
  std::uint64_t nodes_explored = 0;   ///< total DFS nodes across all solves
  /// Rotation assignments scored by link solves and graph solves, and the
  /// circle segments those scorings read: deterministic work counters, kept
  /// out of reports and snapshots.
  std::uint64_t evaluations = 0;
  std::uint64_t segments_walked = 0;
  /// Interference-graph components (multi-bottleneck sharing groups) sent to
  /// the graph solver / answered from the component cache.
  std::uint64_t component_solves = 0;
  std::uint64_t component_cache_hits = 0;
  /// Wall-clock spent inside link solves, and inside graph solves outside
  /// their link solves.  Nondeterministic — kept for programmatic consumers
  /// (benchmarks); never part of a deterministic report.
  std::uint64_t wall_micros = 0;
  std::uint64_t component_wall_micros = 0;

  std::uint64_t lookups() const { return solves + cache_hits; }
  double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(lookups());
  }
};

/// Solves with the default SolverOptions (count mode, the paper's cap of
/// one job per sector).
class IncrementalResolver {
 public:
  struct Answer {
    /// Stable pointer into the cache; valid until clear().
    const SolverResult* result = nullptr;
    bool cache_hit = false;
  };

  /// Solves (or recalls) the compatibility verdict for one sharing group.
  /// `warm_start`, when sized like `profiles`, carries rotations from a
  /// previous verdict covering these jobs; it affects only how a cache miss
  /// is solved, never the cache key.
  Answer solve_group(std::span<const CommProfile> profiles,
                     std::vector<Duration> warm_start = {});

  struct ComponentAnswer {
    /// Stable pointer into the component cache; valid until clear().
    const GraphResult* result = nullptr;
    bool cache_hit = false;
  };

  /// Solves (or recalls) one interference-graph component: jobs that
  /// transitively share fabric links, each carrying the opaque link keys its
  /// traffic crosses (core/interference_graph.h).  Keyed on
  /// InterferenceGraph::component_signature, so a structurally identical
  /// component — at another fabric location or another time — is answered
  /// without solving.  On a miss the per-link circle solves route through
  /// solve_group(), sharing the group signature cache.  `warm_start`, when
  /// sized like `jobs`, carries the incumbent global rotations; a
  /// violation-free incumbent certifies the component with zero link solves.
  ComponentAnswer solve_component(std::span<const GraphJob> jobs,
                                  std::vector<Duration> warm_start = {});

  /// Canonical signature of a group: per job, the period / demand / arc
  /// geometry (names excluded — two jobs with identical profiles are
  /// interchangeable to the solver).  Order-sensitive by design: callers
  /// keep group membership in a stable order.
  static std::string signature(std::span<const CommProfile> profiles);

  const ResolveStats& stats() const { return stats_; }
  std::size_t cache_size() const { return cache_.size(); }
  void clear();

  /// Cache keys in map (= deterministic) order, for checkpoint capture: the
  /// signature cache is part of the state a resumed run must reproduce so
  /// its hit/miss stream (and thus the solve trace) stays byte-identical.
  std::vector<std::string> cache_keys() const {
    std::vector<std::string> keys;
    keys.reserve(cache_.size());
    for (const auto& [sig, result] : cache_) keys.push_back(sig);
    return keys;
  }

  /// Component-cache keys in map order, for the "igraph" checkpoint section.
  std::vector<std::string> component_cache_keys() const {
    std::vector<std::string> keys;
    keys.reserve(component_cache_.size());
    for (const auto& [sig, result] : component_cache_) keys.push_back(sig);
    return keys;
  }
  std::size_t component_cache_size() const { return component_cache_.size(); }

 private:
  // std::map: pointers into values stay valid across inserts.
  std::map<std::string, SolverResult> cache_;
  std::map<std::string, GraphResult> component_cache_;
  ResolveStats stats_;
};

}  // namespace ccml
