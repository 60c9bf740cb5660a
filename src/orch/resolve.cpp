#include "orch/resolve.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace ccml {

IncrementalResolver::IncrementalResolver(SolverOptions options)
    : options_(std::move(options)) {}

std::string IncrementalResolver::signature(
    std::span<const CommProfile> profiles) {
  std::string sig;
  sig.reserve(profiles.size() * 48);
  char buf[64];
  for (const auto& p : profiles) {
    std::snprintf(buf, sizeof(buf), "p%" PRId64 "d%.0f", p.period.ns(),
                  p.demand.bits_per_sec());
    sig += buf;
    for (const auto& arc : p.arcs) {
      std::snprintf(buf, sizeof(buf), "a%" PRId64 "+%" PRId64, arc.start.ns(),
                    arc.length.ns());
      sig += buf;
    }
    sig += ';';
  }
  return sig;
}

IncrementalResolver::Answer IncrementalResolver::solve_group(
    std::span<const CommProfile> profiles, std::vector<Duration> warm_start) {
  std::string sig = signature(profiles);
  if (auto it = cache_.find(sig); it != cache_.end()) {
    ++stats_.cache_hits;
    return Answer{&it->second, true};
  }

  SolverOptions options = options_;
  if (warm_start.size() == profiles.size()) {
    options.warm_start = std::move(warm_start);
  }
  CompatibilitySolver solver(std::move(options));
  const auto t0 = std::chrono::steady_clock::now();
  SolverResult result = solver.solve(profiles);
  const auto t1 = std::chrono::steady_clock::now();

  ++stats_.solves;
  stats_.nodes_explored += result.nodes_explored;
  stats_.evaluations += result.evaluations;
  stats_.wall_micros += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  // A compatible verdict with zero nodes explored means the warm-start
  // witness answered before any search.
  if (result.compatible && result.nodes_explored == 0 &&
      !solver.options().warm_start.empty()) {
    ++stats_.warm_start_hits;
  }

  auto [it, inserted] = cache_.emplace(std::move(sig), std::move(result));
  (void)inserted;
  return Answer{&it->second, false};
}

IncrementalResolver::ComponentAnswer IncrementalResolver::solve_component(
    std::span<const GraphJob> jobs, std::vector<Duration> warm_start) {
  std::string sig = InterferenceGraph::component_signature(jobs);
  if (auto it = component_cache_.find(sig); it != component_cache_.end()) {
    ++stats_.component_cache_hits;
    return ComponentAnswer{&it->second, true};
  }

  InterferenceGraphOptions options;
  options.solver = options_;
  InterferenceGraph graph(options);
  // Per-link circle solves hit the same signature cache as solve_group():
  // an identical sharing group on another link (or inside another component)
  // is answered without searching, and its stats land in solves/cache_hits.
  graph.set_link_solver([this](std::span<const CommProfile> profiles,
                               std::vector<Duration> warm) {
    return *solve_group(profiles, std::move(warm)).result;
  });
  const std::uint64_t link_micros = stats_.wall_micros;
  const auto t0 = std::chrono::steady_clock::now();
  GraphResult result =
      graph.solve(jobs, warm_start.size() == jobs.size()
                            ? std::span<const Duration>(warm_start)
                            : std::span<const Duration>{});
  const auto t1 = std::chrono::steady_clock::now();
  ++stats_.component_solves;
  stats_.evaluations += result.evaluations;
  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  // The graph's own time: its link solves already went into wall_micros.
  const std::uint64_t nested = stats_.wall_micros - link_micros;
  stats_.component_wall_micros += micros > nested ? micros - nested : 0;

  auto [it, inserted] = component_cache_.emplace(std::move(sig),
                                                 std::move(result));
  (void)inserted;
  return ComponentAnswer{&it->second, false};
}

void IncrementalResolver::clear() {
  cache_.clear();
  component_cache_.clear();
  stats_ = ResolveStats{};
}

}  // namespace ccml
