#include "cc/timely.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace ccml {
namespace {

struct Fixture {
  explicit Fixture(TimelyConfig cfg = {})
      : topo(Topology::dumbbell(3, Rate::gbps(50), Rate::gbps(50))),
        router(topo) {
    NetworkConfig ncfg;
    ncfg.goodput_factor = 1.0;
    ncfg.step = Duration::micros(10);
    auto policy = std::make_unique<TimelyPolicy>(cfg);
    timely = policy.get();
    net = std::make_unique<Network>(topo, std::move(policy), ncfg);
    net->attach(sim);
    hosts = topo.hosts();
  }

  FlowId flow(int pair, Bytes size, Rate delta = Rate::zero()) {
    FlowSpec fs;
    fs.src = hosts[2 * pair];
    fs.dst = hosts[2 * pair + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = size;
    fs.cc_rai = delta;  // TIMELY repurposes cc_rai as the additive step
    fs.job = JobId{pair};
    return net->start_flow(std::move(fs));
  }

  double mean_rate_gbps(FlowId id, int samples_ms) {
    Summary s;
    for (int i = 0; i < samples_ms; ++i) {
      sim.run_for(Duration::millis(1));
      if (!net->is_active(id)) break;
      s.add(net->rate(id).to_gbps());
    }
    return s.empty() ? 0.0 : s.mean();
  }

  Simulator sim;
  Topology topo;
  Router router;
  TimelyPolicy* timely = nullptr;
  std::unique_ptr<Network> net;
  std::vector<NodeId> hosts;
};

TEST(Timely, SingleFlowStaysNearLineRate) {
  Fixture f;
  const FlowId id = f.flow(0, Bytes::giga(10));
  f.sim.run_for(Duration::millis(20));
  ASSERT_TRUE(f.net->is_active(id));
  EXPECT_GT(f.mean_rate_gbps(id, 30), 35.0);
}

TEST(Timely, TwoFlowsShareReasonably) {
  Fixture f;
  const FlowId a = f.flow(0, Bytes::giga(50));
  const FlowId b = f.flow(1, Bytes::giga(50));
  f.sim.run_for(Duration::millis(50));
  Summary ra, rb;
  for (int i = 0; i < 200; ++i) {
    f.sim.run_for(Duration::millis(1));
    ra.add(f.net->rate(a).to_gbps());
    rb.add(f.net->rate(b).to_gbps());
  }
  // Delay-based control with identical parameters: both flows within a
  // reasonable band around the fair share, aggregate near capacity.
  EXPECT_NEAR(ra.mean() + rb.mean(), 50.0, 8.0);
  EXPECT_GT(ra.mean(), 12.0);
  EXPECT_GT(rb.mean(), 12.0);
}

TEST(Timely, LargerDeltaWinsBandwidth) {
  Fixture f;
  const FlowId aggressive = f.flow(0, Bytes::giga(100), Rate::mbps(40));
  const FlowId meek = f.flow(1, Bytes::giga(100), Rate::mbps(5));
  f.sim.run_for(Duration::millis(50));
  Summary ra, rb;
  for (int i = 0; i < 300; ++i) {
    f.sim.run_for(Duration::millis(1));
    ra.add(f.net->rate(aggressive).to_gbps());
    rb.add(f.net->rate(meek).to_gbps());
  }
  EXPECT_GT(ra.mean(), rb.mean() * 1.2)
      << "aggressive=" << ra.mean() << " meek=" << rb.mean();
}

TEST(Timely, QueueStaysBounded) {
  Fixture f;
  f.flow(0, Bytes::giga(50));
  f.flow(1, Bytes::giga(50));
  f.sim.run_for(Duration::millis(300));
  EXPECT_LT(f.timely->link_queue(LinkId{0}).count(), Bytes::mega(10).count());
}

TEST(Timely, FlowCompletionWorks) {
  Fixture f;
  bool done = false;
  FlowSpec fs;
  fs.src = f.hosts[0];
  fs.dst = f.hosts[1];
  fs.route = f.router.pick(fs.src, fs.dst, 0);
  fs.size = Bytes::mega(50);
  f.net->start_flow(std::move(fs), [&](const Flow&, TimePoint) { done = true; });
  f.sim.run_for(Duration::millis(100));
  EXPECT_TRUE(done);
}

TEST(Timely, DiagReportsState) {
  Fixture f;
  const FlowId id = f.flow(0, Bytes::giga(1));
  f.sim.run_for(Duration::millis(5));
  const auto d = f.timely->diag(id);
  EXPECT_GT(d.rate.to_gbps(), 0.0);
  EXPECT_GE(d.last_rtt.ns(), 0);
}

TEST(Timely, RateNeverBelowFloorOrAboveLine) {
  TimelyConfig cfg;
  Fixture f(cfg);
  const FlowId a = f.flow(0, Bytes::giga(50));
  const FlowId b = f.flow(1, Bytes::giga(50));
  const FlowId c = f.flow(2, Bytes::giga(50));
  for (int i = 0; i < 200; ++i) {
    f.sim.run_for(Duration::millis(1));
    for (const FlowId id : {a, b, c}) {
      if (!f.net->is_active(id)) continue;
      const double r = f.net->rate(id).to_gbps();
      EXPECT_GE(r, kRateFloor.to_gbps() - 1e-9);
      EXPECT_LE(r, 50.0 + 1e-9);
    }
  }
}

}  // namespace
}  // namespace ccml
