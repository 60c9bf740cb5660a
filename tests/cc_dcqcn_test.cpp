#include "cc/dcqcn.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "util/stats.h"
#include "sim/simulator.h"

namespace ccml {
namespace {

struct Fixture {
  explicit Fixture(DcqcnConfig cfg = {}, double goodput = 1.0)
      : topo(Topology::dumbbell(3, Rate::gbps(50), Rate::gbps(50))),
        router(topo) {
    NetworkConfig ncfg;
    ncfg.goodput_factor = goodput;
    ncfg.step = Duration::micros(10);
    auto policy = std::make_unique<DcqcnPolicy>(cfg);
    dcqcn = policy.get();
    net = std::make_unique<Network>(topo, std::move(policy), ncfg);
    net->attach(sim);
    hosts = topo.hosts();
  }

  FlowId flow(int pair, Bytes size, Duration timer = Duration::zero(),
              Rate rai = Rate::zero()) {
    FlowSpec fs;
    fs.src = hosts[2 * pair];
    fs.dst = hosts[2 * pair + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = size;
    fs.cc_timer = timer;
    fs.cc_rai = rai;
    fs.job = JobId{pair};
    return net->start_flow(std::move(fs));
  }

  /// Mean rate of a flow measured over a window, in Gbps.
  double mean_rate_gbps(FlowId id, Duration window, Duration step) {
    double sum = 0;
    int n = 0;
    for (Duration t = Duration::zero(); t < window; t += step) {
      sim.run_for(step);
      if (!net->is_active(id)) break;
      sum += net->rate(id).to_gbps();
      ++n;
    }
    return n > 0 ? sum / n : 0.0;
  }

  Simulator sim;
  Topology topo;
  Router router;
  DcqcnPolicy* dcqcn = nullptr;
  std::unique_ptr<Network> net;
  std::vector<NodeId> hosts;
};

TEST(Dcqcn, SingleFlowReachesLineRate) {
  Fixture f;
  const FlowId id = f.flow(0, Bytes::giga(10));
  f.sim.run_for(Duration::millis(20));
  ASSERT_TRUE(f.net->is_active(id));
  // A lone flow should hover near line rate (some dips from self-induced
  // marking are acceptable).
  EXPECT_GT(f.net->rate(id).to_gbps(), 40.0);
}

TEST(Dcqcn, TwoEqualFlowsConvergeToFairShare) {
  Fixture f;
  const FlowId a = f.flow(0, Bytes::giga(50));
  const FlowId b = f.flow(1, Bytes::giga(50));
  f.sim.run_for(Duration::millis(50));  // warm up past transients
  const double ra = f.mean_rate_gbps(a, Duration::millis(100), Duration::millis(1));
  f.sim.run_for(Duration::millis(1));
  ASSERT_TRUE(f.net->is_active(b));
  // Both should sit near 25 Gbps; allow generous tolerance for the marking
  // stochastics.
  EXPECT_NEAR(ra, 25.0, 6.0);
}

TEST(Dcqcn, AggressiveTimerWinsBandwidth) {
  // The paper's Fig. 1 knob: a smaller rate-increase timer makes a job more
  // aggressive, and it should secure a clearly larger share.
  DcqcnConfig cfg;
  Fixture f(cfg);
  const FlowId aggressive =
      f.flow(0, Bytes::giga(100), Duration::micros(55), Rate::mbps(80));
  const FlowId meek =
      f.flow(1, Bytes::giga(100), Duration::micros(300), Rate::mbps(40));
  f.sim.run_for(Duration::millis(50));
  double sum_a = 0, sum_m = 0;
  int n = 0;
  for (int i = 0; i < 200; ++i) {
    f.sim.run_for(Duration::millis(1));
    sum_a += f.net->rate(aggressive).to_gbps();
    sum_m += f.net->rate(meek).to_gbps();
    ++n;
  }
  const double ra = sum_a / n, rm = sum_m / n;
  EXPECT_GT(ra, rm * 1.3) << "aggressive=" << ra << " meek=" << rm;
  // Link still roughly fully used.
  EXPECT_GT(ra + rm, 40.0);
}

TEST(Dcqcn, QueueStaysBounded) {
  Fixture f;
  f.flow(0, Bytes::giga(50));
  f.flow(1, Bytes::giga(50));
  f.sim.run_for(Duration::millis(200));
  // The bottleneck queue must stay in the RED band's vicinity, not blow up.
  const Bytes q = f.dcqcn->link_queue(LinkId{0});
  EXPECT_LT(q.count(), Bytes::mega(5).count());
}

TEST(Dcqcn, RpStateReportsSaneValues) {
  Fixture f;
  const FlowId id = f.flow(0, Bytes::giga(10));
  f.sim.run_for(Duration::millis(10));
  const auto rp = f.dcqcn->rp_state(id);
  EXPECT_GT(rp.current.to_gbps(), 0.0);
  EXPECT_GT(rp.target.to_gbps(), 0.0);
  EXPECT_GE(rp.alpha, 0.0);
  EXPECT_LE(rp.alpha, 1.0);
}

TEST(Dcqcn, FlowStateCleanedUpOnFinish) {
  Fixture f;
  bool done = false;
  FlowSpec fs;
  fs.src = f.hosts[0];
  fs.dst = f.hosts[1];
  fs.route = f.router.pick(fs.src, fs.dst, 0);
  fs.size = Bytes::mega(10);
  f.net->start_flow(std::move(fs), [&](const Flow&, TimePoint) { done = true; });
  f.sim.run_for(Duration::millis(50));
  EXPECT_TRUE(done);
  EXPECT_EQ(f.net->active_flow_count(), 0u);
}

TEST(Dcqcn, GoodputFactorCapsAggregate) {
  Fixture f({}, /*goodput=*/0.85);
  const FlowId a = f.flow(0, Bytes::giga(100));
  const FlowId b = f.flow(1, Bytes::giga(100));
  f.sim.run_for(Duration::millis(50));
  double total = 0;
  int n = 0;
  for (int i = 0; i < 100; ++i) {
    f.sim.run_for(Duration::millis(1));
    total += f.net->rate(a).to_gbps() + f.net->rate(b).to_gbps();
    ++n;
  }
  // Aggregate goodput hovers near 42.5, the paper's ~42 Gbps observation.
  EXPECT_NEAR(total / n, 42.5, 4.0);
}

TEST(Dcqcn, StochasticMarkingVariesWithSeed) {
  auto run = [](std::uint64_t seed) {
    DcqcnConfig cfg;
    cfg.deterministic_marking = false;
    cfg.seed = seed;
    Fixture f(cfg);
    const FlowId a = f.flow(0, Bytes::giga(10));
    f.flow(1, Bytes::giga(10));
    f.sim.run_for(Duration::millis(30));
    return f.net->rate(a).bits_per_sec();
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(DcqcnAdaptive, NearlyDoneFlowOutcompetesFreshFlow) {
  // Paper §4(i): R_AI scales with communication progress, so a flow at 90%
  // progress beats a flow at 0% when they collide.
  DcqcnConfig cfg;
  cfg.adaptive_rai = true;
  Fixture f(cfg);
  // Old flow: started small so it is mostly done when the new one arrives.
  const FlowId old_flow = f.flow(0, Bytes::giga(2));
  f.sim.run_for(Duration::millis(100));  // old flow progresses alone
  ASSERT_TRUE(f.net->is_active(old_flow));
  const double progress = f.net->progress_of(old_flow);
  ASSERT_GT(progress, 0.2);
  const FlowId fresh = f.flow(1, Bytes::giga(50));
  f.sim.run_for(Duration::millis(30));
  double sum_old = 0, sum_fresh = 0;
  int n = 0;
  while (f.net->is_active(old_flow) && n < 100) {
    f.sim.run_for(Duration::millis(1));
    if (!f.net->is_active(old_flow)) break;
    sum_old += f.net->rate(old_flow).to_gbps();
    sum_fresh += f.net->rate(fresh).to_gbps();
    ++n;
  }
  ASSERT_GT(n, 10);
  EXPECT_GT(sum_old / n, sum_fresh / n);
}

// Parameterized sweep: DCQCN must stay stable (bounded queue, near-full
// utilization, no starvation) across a realistic range of marking and
// rate-increase parameters.
struct DcqcnParams {
  double kmin_kb;
  double kmax_kb;
  double pmax;
  std::int64_t timer_us;
};

class DcqcnParamSweep : public ::testing::TestWithParam<DcqcnParams> {};

TEST_P(DcqcnParamSweep, StableUnderTwoFlows) {
  const DcqcnParams p = GetParam();
  DcqcnConfig cfg;
  cfg.kmin = Bytes::kilo(p.kmin_kb);
  cfg.kmax = Bytes::kilo(p.kmax_kb);
  cfg.pmax = p.pmax;
  cfg.timer = Duration::micros(p.timer_us);
  Fixture f(cfg);
  const FlowId a = f.flow(0, Bytes::giga(100));
  const FlowId b = f.flow(1, Bytes::giga(100));
  f.sim.run_for(Duration::millis(100));
  Summary ra, rb, q;
  for (int i = 0; i < 200; ++i) {
    f.sim.run_for(Duration::millis(1));
    ra.add(f.net->rate(a).to_gbps());
    rb.add(f.net->rate(b).to_gbps());
    q.add(f.dcqcn->link_queue(LinkId{0}).to_mb());
  }
  // Utilization: the pair should keep the link mostly busy.
  EXPECT_GT(ra.mean() + rb.mean(), 38.0);
  // No starvation under symmetric parameters.
  EXPECT_GT(ra.mean(), 10.0);
  EXPECT_GT(rb.mean(), 10.0);
  // Queue bounded well below 20 MB.
  EXPECT_LT(q.max(), 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    MarkingConfigs, DcqcnParamSweep,
    ::testing::Values(DcqcnParams{50, 200, 0.01, 125},   // defaults
                      DcqcnParams{20, 100, 0.01, 125},   // shallow band
                      DcqcnParams{100, 400, 0.01, 125},  // deep band
                      DcqcnParams{50, 200, 0.10, 125},   // aggressive marking
                      DcqcnParams{50, 200, 0.01, 55},    // fast timer
                      DcqcnParams{50, 200, 0.01, 300},   // slow timer
                      DcqcnParams{50, 200, 0.002, 125}   // gentle marking
                      ));

TEST(DcqcnConfigDefaults, MatchPaperSetup) {
  const DcqcnConfig cfg;
  EXPECT_EQ(cfg.timer.ns(), Duration::micros(125).ns());  // paper's default T
  EXPECT_EQ(DcqcnPolicy::kRai.bits_per_sec(), Rate::mbps(40).bits_per_sec());
  EXPECT_FALSE(cfg.adaptive_rai);
}

}  // namespace
}  // namespace ccml
