// Allocate-on-change oracle for the ideal policies (max-min fair, WFQ,
// strict priority).  The shipped policies recompute their allocation only
// after a flow start/finish or a capacity change and let Network::step_burst
// fuse the ticks in between, bounded by each flow's exact rate.  The oracle
// is the old behaviour: an in-test subclass of each policy that allocates on
// every tick and declines fusion (infinite rate bound).  Seeded random
// leaf-spine cases with staggered starts, weights, mixed priority classes,
// a brownout, fabric and host link failures (reroute, park, unpark) and a
// mid-run replace_policy must give bit-identical completion times and
// Network::serialize_state() after every event — both watched (an observer
// attached, so every tick runs checked) and unwatched (fused).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cc/max_min_fair.h"
#include "cc/priority.h"
#include "cc/wfq.h"
#include "net/network.h"
#include "net/routing.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"

namespace ccml {
namespace {

/// The oracle: a full allocation on every tick and no rate bound, so the
/// network never fuses this policy's ticks.
template <class P>
class EveryTick final : public P {
 public:
  void update_rates(Network& net, TimePoint /*now*/, Duration /*dt*/) override {
    this->allocate(net);
  }
  double rate_bound_bps(const Network& /*net*/,
                        std::uint32_t /*slot*/) const override {
    return std::numeric_limits<double>::infinity();
  }
};

/// The shipped policy, unchanged but for a count of the ticks it ran fused.
template <class P>
class Counted final : public P {
 public:
  explicit Counted(std::uint64_t* fused) : fused_(fused) {}
  void update_rates_burst(Network& net, TimePoint first, Duration dt,
                          std::uint64_t ticks) override {
    *fused_ += ticks;
    P::update_rates_burst(net, first, dt, ticks);
  }

 private:
  std::uint64_t* fused_;
};

enum class Kind { kMaxMin, kWfq, kPriority };

Kind next(Kind k) {
  switch (k) {
    case Kind::kMaxMin:
      return Kind::kWfq;
    case Kind::kWfq:
      return Kind::kPriority;
    case Kind::kPriority:
      return Kind::kMaxMin;
  }
  return Kind::kMaxMin;
}

template <class P>
std::unique_ptr<BandwidthPolicy> make_as(bool reference,
                                         std::uint64_t* fused) {
  if (reference) return std::make_unique<EveryTick<P>>();
  return std::make_unique<Counted<P>>(fused);
}

std::unique_ptr<BandwidthPolicy> make(Kind kind, bool reference,
                                      std::uint64_t* fused) {
  switch (kind) {
    case Kind::kMaxMin:
      return make_as<MaxMinFairPolicy>(reference, fused);
    case Kind::kWfq:
      return make_as<WfqPolicy>(reference, fused);
    case Kind::kPriority:
      return make_as<PriorityPolicy>(reference, fused);
  }
  return nullptr;
}

// --- Random cases ------------------------------------------------------------

struct FlowPlan {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  double weight = 1.0;
  int priority = 0;
  std::int64_t gap_us = 0;  // pause before the chain's next flow (0 = none)
};

struct Chain {
  std::int64_t start_us = 0;
  std::vector<FlowPlan> flows;
};

struct LinkEvent {
  std::int64_t at_us = 0;
  LinkId link;
  double factor = 1.0;
};

struct Case {
  Rate fabric;
  std::vector<Chain> chains;
  std::vector<LinkEvent> link_events;
  std::int64_t replace_at_us = 0;
};

constexpr int kTors = 3;
constexpr int kHostsPerTor = 2;
constexpr int kSpines = 2;

Topology fabric_of(const Case& c) {
  return Topology::leaf_spine(kTors, kHostsPerTor, kSpines, Rate::gbps(50),
                              c.fabric);
}

Case random_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Case c;
  c.fabric = Rate::gbps(static_cast<double>(pick(20, 50)));
  const int hosts = kTors * kHostsPerTor;
  const double weights[] = {0.5, 1.0, 2.0, 4.0};
  const int chains = static_cast<int>(pick(5, 9));
  for (int i = 0; i < chains; ++i) {
    Chain chain;
    chain.start_us = pick(0, 6000);
    const int n = static_cast<int>(pick(1, 3));
    for (int k = 0; k < n; ++k) {
      FlowPlan f;
      f.src = static_cast<int>(pick(0, hosts - 1));
      f.dst = static_cast<int>((f.src + pick(1, hosts - 1)) % hosts);
      f.bytes = static_cast<double>(pick(500, 8000)) * 1e3;
      f.weight = weights[pick(0, 3)];
      f.priority = static_cast<int>(pick(0, 2));
      // Half the successors start inside the completion callback, half
      // after an idle pause (the allocation then goes stale on a finish).
      f.gap_us = pick(0, 1) == 0 ? 0 : pick(50, 1500);
      chain.flows.push_back(f);
    }
    c.chains.push_back(std::move(chain));
  }

  const Topology topo = fabric_of(c);
  std::vector<LinkId> fabric_links, host_links;
  for (const LinkInfo& l : topo.links()) {
    const bool host_side = topo.node(l.src).kind == NodeKind::kHost ||
                           topo.node(l.dst).kind == NodeKind::kHost;
    (host_side ? host_links : fabric_links).push_back(l.id);
  }
  const auto any = [&](const std::vector<LinkId>& links) {
    return links[static_cast<std::size_t>(
        pick(0, static_cast<std::int64_t>(links.size()) - 1))];
  };
  // Brownout and restore on a fabric link.
  const LinkId brown = any(fabric_links);
  const std::int64_t brown_at = pick(2000, 12000);
  c.link_events.push_back({brown_at, brown, pick(0, 1) == 0 ? 0.3 : 0.55});
  c.link_events.push_back({brown_at + pick(2000, 10000), brown, 1.0});
  // Two fabric links down and up again, while traffic is dense: their flows
  // reroute over the other spine.
  for (int i = 0; i < 2; ++i) {
    const LinkId cut = any(fabric_links);
    const std::int64_t cut_at = pick(2000, 9000);
    c.link_events.push_back({cut_at, cut, 0.0});
    c.link_events.push_back({cut_at + pick(1000, 8000), cut, 1.0});
  }
  // A host link down and up again: no alternate path, so its flows park and
  // later unpark.
  const LinkId host = any(host_links);
  const std::int64_t host_at = pick(2000, 20000);
  c.link_events.push_back({host_at, host, 0.0});
  c.link_events.push_back({host_at + pick(1000, 8000), host, 1.0});
  c.replace_at_us = pick(4000, 25000);
  return c;
}

// --- One run -----------------------------------------------------------------

/// Samples every active flow's exact rate bits after each executed step.
class RateRecorder : public NetObserver {
 public:
  void on_step(const Network& net, TimePoint) override {
    for (const std::uint32_t slot : net.active_slots()) {
      samples.push_back(net.rates_bps()[slot]);
    }
  }
  bool quiescence_compatible() const override { return true; }
  std::vector<double> samples;
};

struct Outcome {
  std::vector<std::int64_t> finish_ns;
  std::vector<std::string> states;  // serialize_state() after every event
  std::vector<double> rates;        // per-tick rates (watched runs only)
  std::uint64_t fused_ticks = 0;
  std::int64_t allocations = 0;     // ideal.allocations on the bus
  std::int64_t parks = 0;           // net.flows_parked
  std::int64_t reroutes = 0;        // net.reroutes
};

Outcome run_case(const Case& c, Kind kind, bool reference, bool watched) {
  const Topology topo = fabric_of(c);
  const Router router(topo);
  Simulator sim;
  Outcome out;
  Network net(topo, make(kind, reference, &out.fused_ticks), {});
  net.attach(sim);
  TraceBus bus;  // no sinks: only the counters
  net.set_trace_bus(&bus);
  net.set_reroute_provider([&](const Flow& flow) {
    const auto usable = [&net](LinkId l) { return net.link_is_up(l); };
    return router.pick(flow.spec.src, flow.spec.dst,
                       static_cast<std::uint64_t>(flow.id.value), usable);
  });
  RateRecorder recorder;
  if (watched) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const auto snapshot = [&] { out.states.push_back(net.serialize_state()); };
  std::function<void(std::size_t, std::size_t)> start =
      [&](std::size_t ci, std::size_t k) {
        const FlowPlan& f = c.chains[ci].flows[k];
        FlowSpec fs;
        fs.src = hosts[static_cast<std::size_t>(f.src)];
        fs.dst = hosts[static_cast<std::size_t>(f.dst)];
        fs.route = router.pick(fs.src, fs.dst, ci * 7 + k);
        fs.size = Bytes::of(f.bytes);
        fs.weight = f.weight;
        fs.priority = f.priority;
        net.start_flow(std::move(fs), [&, ci, k](const Flow&, TimePoint t) {
          out.finish_ns.push_back(t.ns());
          snapshot();
          if (k + 1 >= c.chains[ci].flows.size()) return;
          const std::int64_t gap = c.chains[ci].flows[k].gap_us;
          if (gap == 0) {
            start(ci, k + 1);
          } else {
            sim.schedule_after(Duration::micros(gap),
                               [&, ci, k] { start(ci, k + 1); });
          }
        });
        snapshot();
      };
  for (std::size_t ci = 0; ci < c.chains.size(); ++ci) {
    sim.schedule_at(TimePoint::from_ns(c.chains[ci].start_us * 1000),
                    [&, ci] { start(ci, 0); });
  }
  for (const LinkEvent& ev : c.link_events) {
    sim.schedule_at(TimePoint::from_ns(ev.at_us * 1000), [&, ev] {
      net.set_link_capacity_factor(ev.link, ev.factor);
      snapshot();
    });
  }
  sim.schedule_at(TimePoint::from_ns(c.replace_at_us * 1000), [&] {
    net.replace_policy(make(next(kind), reference, &out.fused_ticks));
    snapshot();
  });
  sim.run_until(TimePoint::from_ns(Duration::millis(120).ns()));
  snapshot();
  out.rates = std::move(recorder.samples);
  out.allocations = bus.counter("ideal.allocations").value();
  out.parks = bus.counter("net.flows_parked").value();
  out.reroutes = bus.counter("net.reroutes").value();
  return out;
}

void expect_same(const Outcome& ref, const Outcome& got, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(ref.finish_ns, got.finish_ns);
  ASSERT_EQ(ref.states.size(), got.states.size());
  for (std::size_t i = 0; i < ref.states.size(); ++i) {
    // Binary blobs: report the event index, not the bytes.
    ASSERT_TRUE(ref.states[i] == got.states[i]) << "state after event " << i;
  }
  ASSERT_EQ(ref.rates.size(), got.rates.size());
  if (!ref.rates.empty()) {
    // memcmp: bit-level equality (catches -0.0 vs 0.0).
    EXPECT_EQ(std::memcmp(ref.rates.data(), got.rates.data(),
                          ref.rates.size() * sizeof(double)),
              0);
  }
}

void check_kind(Kind kind) {
  std::uint64_t fused = 0;
  std::size_t finishes = 0;
  std::int64_t parks = 0, reroutes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = random_case(seed);
    const Outcome ref_watched = run_case(c, kind, true, true);
    const Outcome got_watched = run_case(c, kind, false, true);
    const Outcome ref_fused = run_case(c, kind, true, false);
    const Outcome got_fused = run_case(c, kind, false, false);
    ASSERT_FALSE(ref_watched.rates.empty());
    expect_same(ref_watched, got_watched, "watched");
    expect_same(ref_fused, got_fused, "unwatched");
    // The oracle itself does not depend on being watched.
    EXPECT_EQ(ref_watched.finish_ns, ref_fused.finish_ns);
    EXPECT_TRUE(ref_watched.states == ref_fused.states);
    EXPECT_EQ(ref_watched.fused_ticks, 0u);
    EXPECT_EQ(ref_fused.fused_ticks, 0u);
    EXPECT_EQ(got_watched.fused_ticks, 0u);
    // Same allocations whether the ticks between them ran fused or not.
    EXPECT_EQ(got_watched.allocations, got_fused.allocations);
    EXPECT_GT(got_fused.allocations, 0);
    fused += got_fused.fused_ticks;
    finishes += ref_fused.finish_ns.size();
    parks += ref_fused.parks;
    reroutes += ref_fused.reroutes;
  }
  // The cases reach every path they are meant to cover.
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(parks, 0);
  EXPECT_GT(reroutes, 0);
  EXPECT_GT(fused, 0u) << "the fused path was never exercised";
}

TEST(IdealAlloc, MaxMinMatchesEveryTickOracle) { check_kind(Kind::kMaxMin); }

TEST(IdealAlloc, WfqMatchesEveryTickOracle) { check_kind(Kind::kWfq); }

TEST(IdealAlloc, PriorityMatchesEveryTickOracle) {
  check_kind(Kind::kPriority);
}

// A strict-priority class starved for the whole run (rate, hence bound,
// zero behind a 1 GB flow that outlasts it) cannot finish, so it must not
// keep the rest of the network from fusing; the result still matches the
// oracle bit for bit.
TEST(IdealAlloc, StarvedPriorityClassDoesNotVetoFusion) {
  Case c;
  c.fabric = Rate::gbps(50);
  // Hosts 0 and 1 share a ToR: one path, and both flows cross it.
  c.chains.push_back({0, {{0, 1, 1e9, 1.0, 0, 0}}});
  c.chains.push_back({0, {{0, 1, 5e6, 1.0, 1, 0}}});
  // Two back-to-back flows elsewhere finish while the low class waits.
  c.chains.push_back({0, {{2, 4, 20e6, 1.0, 0, 0}, {2, 4, 20e6, 1.0, 0, 0}}});
  c.replace_at_us = 1'000'000;  // past the run's end: no policy swap
  const Outcome ref_watched = run_case(c, Kind::kPriority, true, true);
  const Outcome got_watched = run_case(c, Kind::kPriority, false, true);
  const Outcome ref_fused = run_case(c, Kind::kPriority, true, false);
  const Outcome got_fused = run_case(c, Kind::kPriority, false, false);
  expect_same(ref_watched, got_watched, "watched");
  expect_same(ref_fused, got_fused, "unwatched");
  EXPECT_EQ(ref_fused.finish_ns.size(), 2u) << "only the two 20 MB flows end";
  EXPECT_GT(got_fused.fused_ticks, 0u);
}

// --- Work counter ------------------------------------------------------------

TEST(IdealAlloc, AllocatesOnlyWhenInputsChange) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  Network net(topo, std::make_unique<MaxMinFairPolicy>(), {});
  net.attach(sim);
  TraceBus bus;
  net.set_trace_bus(&bus);
  const auto hosts = topo.hosts();
  const auto start = [&](int pair, double mb) {
    FlowSpec fs;
    fs.src = hosts[2 * pair];
    fs.dst = hosts[2 * pair + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = Bytes::mega(mb);
    net.start_flow(std::move(fs));
  };
  const Counter& allocations = bus.counter("ideal.allocations");
  // Two flows start on the same tick: one allocation for both.
  start(0, 5.0);
  start(1, 20.0);
  sim.run_for(Duration::millis(1));
  EXPECT_EQ(allocations.value(), 1);
  // A brownout on the bottleneck: one more.
  const LinkId bottleneck = net.flow_at(net.active_slots()[0]).spec.route.links[1];
  net.set_link_capacity_factor(bottleneck, 0.5);
  sim.run_for(Duration::millis(1));
  EXPECT_EQ(allocations.value(), 2);
  // The small flow finishes (one more); the large one then finishes and the
  // network goes idle without another allocation.
  sim.run_for(Duration::millis(20));
  EXPECT_EQ(net.active_flows().size(), 0u);
  EXPECT_EQ(allocations.value(), 3);
}

}  // namespace
}  // namespace ccml
