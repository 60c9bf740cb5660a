// Golden hashes of the compatibility solver's results on fixed instances.
// Each case hashes everything a result carries (rotations in ns, verdict,
// proof flag, violation and overlap bits, DFS nodes and scorings), so any
// change to the search, the annealing walk, slack spreading, the GPU
// constraint, the graph's propagation and refinement, or the resolver's
// cache keys (which checkpoint snapshots store) shows up as a hash change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/interference_graph.h"
#include "core/solver.h"
#include "orch/resolve.h"

namespace ccml {
namespace {

class Fnv {
 public:
  Fnv& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  Fnv& i64(std::int64_t v) { return bytes(&v, sizeof(v)); }
  Fnv& real(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Fnv& flag(bool v) { return u64(v ? 1 : 0); }
  Fnv& text(const std::string& s) { return bytes(s.data(), s.size()).u64(0); }
  Fnv& rotations(const std::vector<Duration>& rots) {
    u64(rots.size());
    for (const Duration r : rots) i64(r.ns());
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash(const SolverResult& r) {
  return Fnv()
      .flag(r.compatible)
      .flag(r.proven)
      .rotations(r.rotations)
      .real(r.violation_fraction)
      .real(r.overlap_fraction)
      .u64(r.nodes_explored)
      .u64(r.evaluations)
      .flag(r.circle_exact)
      .value();
}

std::uint64_t hash(const GraphResult& r) {
  Fnv h;
  h.flag(r.compatible).flag(r.proven).rotations(r.rotations);
  for (const std::size_t c : r.component) h.u64(c);
  for (const LinkVerdict& v : r.links) {
    h.i64(v.link).real(v.violation_fraction).flag(v.locally_compatible)
        .flag(v.circle_exact);
    for (const std::size_t j : v.jobs) h.u64(j);
  }
  for (const RotationConflict& c : r.conflicts) {
    h.u64(c.job).i64(c.link).i64(c.mismatch.ns());
  }
  return h.real(r.worst_violation)
      .real(r.total_violation)
      .flag(r.circle_exact)
      .u64(r.link_solves)
      .u64(r.evaluations)
      .value();
}

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms, double demand_gbps = 42.5) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(demand_gbps));
}

/// Two arcs per iteration: a mid-iteration all-reduce and a tail one.
CommProfile two_phase(const char* name, std::int64_t period_ms) {
  CommProfile p;
  p.name = name;
  p.period = Duration::millis(period_ms);
  p.demand = Rate::gbps(25);
  p.arcs = {
      Arc{Duration::millis(period_ms / 5), Duration::millis(period_ms / 10)},
      Arc{Duration::millis(period_ms * 3 / 5), Duration::millis(period_ms / 5)}};
  return p;
}

TEST(SolverGolden, CountModeDfsWithContactRotations) {
  // Tight tilings reachable only through contact rotations, then spread.
  const SolverResult tile =
      CompatibilitySolver().solve(std::vector<CommProfile>{
          job("a", 100, 50), job("b", 100, 50)});
  EXPECT_TRUE(tile.compatible);
  EXPECT_EQ(hash(tile), 9876578824454535686u);
  const SolverResult mixed =
      CompatibilitySolver().solve(std::vector<CommProfile>{
          job("a", 50, 46), job("b", 100, 84), job("c", 150, 126)});
  EXPECT_TRUE(mixed.compatible);
  EXPECT_EQ(hash(mixed), 15865904771780218188u);
  // Refuted by exhaustive search (the analytic bound passes).
  const SolverResult refuted =
      CompatibilitySolver().solve(std::vector<CommProfile>{
          job("a", 40, 36), job("b", 80, 72), two_phase("c", 120)});
  EXPECT_TRUE(refuted.proven);
  EXPECT_GT(refuted.nodes_explored, 0u);
  EXPECT_EQ(hash(refuted), 15288949989974288097u);
  // Refuted by the analytic bound, then annealed.
  const SolverResult bound =
      CompatibilitySolver().solve(std::vector<CommProfile>{
          job("a", 100, 40), job("b", 100, 45), two_phase("c", 100)});
  EXPECT_TRUE(bound.proven);
  EXPECT_EQ(hash(bound), 14714170277268100686u);
  const SolverResult solo =
      CompatibilitySolver().solve(std::vector<CommProfile>{job("a", 100, 10)});
  EXPECT_EQ(hash(solo), 17203770286880867301u);
}

TEST(SolverGolden, BudgetExhaustedAnnealingFromWarmStart) {
  SolverOptions opts;
  opts.search_budget = 50;
  opts.anneal_iterations = 3'000;
  opts.warm_start = {Duration::zero(), Duration::millis(10),
                     Duration::millis(20)};
  const SolverResult stuck = CompatibilitySolver(opts).solve(
      std::vector<CommProfile>{job("a", 97, 70), job("b", 89, 62),
                               job("c", 83, 58)});
  EXPECT_FALSE(stuck.proven);
  EXPECT_EQ(stuck.nodes_explored, 51u);  // the budget, plus the node that hit it
  EXPECT_EQ(hash(stuck), 8610465914588959462u);
  // The walk reaches zero violation and stops there.
  opts.search_budget = 2;
  opts.warm_start = {Duration::zero(), Duration::zero(), Duration::zero()};
  const SolverResult found = CompatibilitySolver(opts).solve(
      std::vector<CommProfile>{job("a", 100, 80), job("b", 100, 80),
                               job("c", 100, 80)});
  EXPECT_TRUE(found.compatible);
  EXPECT_LT(found.evaluations, 3'001u);
  EXPECT_EQ(hash(found), 2620291694559125230u);
}

TEST(SolverGolden, GpuGroups) {
  SolverOptions opts;
  opts.gpu_groups = {0, 0};
  EXPECT_EQ(hash(CompatibilitySolver(opts).solve(std::vector<CommProfile>{
                job("a", 100, 40), job("b", 100, 60)})),
            12218947947183044312u);
  opts.gpu_groups = {0, 0, -1};
  EXPECT_EQ(hash(CompatibilitySolver(opts).solve(std::vector<CommProfile>{
                job("a", 100, 60), job("b", 100, 60), job("c", 100, 85)})),
            4313818766391754015u);
  // Compute phases that cannot share the GPU: annealed with the GPU term.
  opts.gpu_groups = {1, 1};
  opts.anneal_iterations = 2'000;
  EXPECT_EQ(hash(CompatibilitySolver(opts).solve(std::vector<CommProfile>{
                job("a", 100, 70), job("b", 100, 60)})),
            16999742515950789133u);
}

TEST(SolverGolden, BandwidthMode) {
  SolverOptions opts;
  opts.mode = SolverOptions::Mode::kBandwidth;
  opts.link_capacity = Rate::gbps(50);
  EXPECT_EQ(hash(CompatibilitySolver(opts).solve(std::vector<CommProfile>{
                job("a", 100, 30, 20.0), job("b", 100, 30, 20.0),
                job("c", 100, 70, 20.0)})),
            11433099330379066434u);
  opts.anneal_iterations = 2'000;
  EXPECT_EQ(hash(CompatibilitySolver(opts).solve(std::vector<CommProfile>{
                job("a", 100, 30, 30.0), job("b", 100, 40, 30.0),
                two_phase("c", 50)})),
            9365444602329479705u);
}

/// Three jobs pairwise sharing three links: the links' local solutions
/// conflict around the cycle, so the joint refinement runs.
std::vector<GraphJob> triangle(std::int64_t compute_ms) {
  return {{job("a", 100, compute_ms), {1, 3}},
          {job("b", 100, compute_ms), {1, 2}},
          {job("c", 100, compute_ms), {2, 3}}};
}

TEST(SolverGolden, GraphRefinesConflictingCycle) {
  // Refinement reaches a violation-free assignment and stops.
  const GraphResult fits = InterferenceGraph().solve(triangle(70));
  EXPECT_FALSE(fits.conflicts.empty());
  EXPECT_TRUE(fits.compatible);
  EXPECT_EQ(hash(fits), 10270582484925761503u);
  // No assignment fits; the refinement walks its whole schedule.
  const GraphResult stuck = InterferenceGraph().solve(triangle(60));
  EXPECT_FALSE(stuck.conflicts.empty());
  EXPECT_FALSE(stuck.compatible);
  EXPECT_EQ(hash(stuck), 12475638239522089975u);
}

TEST(SolverGolden, ResolverCacheKeys) {
  IncrementalResolver resolver;
  resolver.solve_group(std::vector<CommProfile>{job("a", 100, 50),
                                                two_phase("b", 120)});
  resolver.solve_group(std::vector<CommProfile>{job("c", 97, 40)});
  std::vector<GraphJob> chain = triangle(70);
  chain[2].links = {2, 9};
  chain.push_back({two_phase("d", 100), {9, 4}});
  resolver.solve_component(chain);
  Fnv h;
  for (const std::string& key : resolver.cache_keys()) h.text(key);
  for (const std::string& key : resolver.component_cache_keys()) h.text(key);
  h.u64(resolver.stats().evaluations).u64(resolver.stats().nodes_explored);
  EXPECT_EQ(h.value(), 3981246007284027272u);
}

}  // namespace
}  // namespace ccml
