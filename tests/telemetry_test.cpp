#include <gtest/gtest.h>

#include <stdexcept>

#include "cc/max_min_fair.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "telemetry/plot.h"
#include "telemetry/recorders.h"
#include "telemetry/table.h"

namespace ccml {
namespace {

struct Fixture {
  Fixture() : topo(Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50))),
              router(topo) {
    NetworkConfig cfg;
    cfg.goodput_factor = 1.0;
    cfg.step = Duration::micros(20);
    net = std::make_unique<Network>(topo, std::make_unique<MaxMinFairPolicy>(),
                                    cfg);
    net->attach(sim);
    hosts = topo.hosts();
  }

  FlowId flow(int pair, Bytes size, JobId job) {
    FlowSpec fs;
    fs.src = hosts[2 * pair];
    fs.dst = hosts[2 * pair + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = size;
    fs.job = job;
    return net->start_flow(std::move(fs));
  }

  /// Wires the bus to the network; call after sinks have attached so the
  /// sampler picks up their declared cadences.
  void bind() { sampler = bind_trace_bus(bus, *net); }

  /// Synthesizes trailing samples for any idle gap at the end of the run.
  void finish() { net->flush_observers(); }

  Simulator sim;
  Topology topo;
  Router router;
  TraceBus bus;
  std::unique_ptr<Network> net;
  std::unique_ptr<TraceThroughputSampler> sampler;
  std::vector<NodeId> hosts;
};

TEST(LinkThroughputRecorder, SamplesAtInterval) {
  Fixture f;
  LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
  rec.attach(f.bus);
  f.bind();
  f.flow(0, Bytes::giga(1), JobId{7});
  f.sim.run_for(Duration::millis(10));
  f.finish();
  ASSERT_EQ(rec.samples().size(), 10u);
  for (const auto& s : rec.samples()) {
    EXPECT_NEAR(s.total.to_gbps(), 50.0, 0.5);
    ASSERT_TRUE(s.per_job.contains(JobId{7}));
    EXPECT_NEAR(s.per_job.at(JobId{7}).to_gbps(), 50.0, 0.5);
  }
}

TEST(LinkThroughputRecorder, SplitsPerJob) {
  Fixture f;
  LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
  rec.attach(f.bus);
  f.bind();
  f.flow(0, Bytes::giga(1), JobId{1});
  f.flow(1, Bytes::giga(1), JobId{2});
  f.sim.run_for(Duration::millis(5));
  f.finish();
  const auto& s = rec.samples().back();
  EXPECT_NEAR(s.per_job.at(JobId{1}).to_gbps(), 25.0, 0.5);
  EXPECT_NEAR(s.per_job.at(JobId{2}).to_gbps(), 25.0, 0.5);
  EXPECT_NEAR(s.total.to_gbps(), 50.0, 0.5);
}

TEST(LinkThroughputRecorder, IdleLinkReportsZero) {
  Fixture f;
  LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
  rec.attach(f.bus);
  f.bind();
  f.sim.run_for(Duration::millis(3));
  f.finish();
  ASSERT_FALSE(rec.samples().empty());
  EXPECT_DOUBLE_EQ(rec.samples().back().total.to_gbps(), 0.0);
}

TEST(LinkThroughputRecorder, KeepsReportingJobAfterItGoesIdle) {
  Fixture f;
  LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
  rec.attach(f.bus);
  f.bind();
  f.flow(0, Bytes::mega(6.25), JobId{3});  // 1 ms at 50 Gbps
  f.sim.run_for(Duration::millis(4));
  f.finish();
  const auto& last = rec.samples().back();
  ASSERT_TRUE(last.per_job.contains(JobId{3}));
  EXPECT_NEAR(last.per_job.at(JobId{3}).to_gbps(), 0.0, 1e-9);
}

TEST(LinkThroughputRecorder, DoubleAttachThrows) {
  TraceBus bus;
  LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
  rec.attach(bus);
  EXPECT_THROW(rec.attach(bus), std::logic_error);
}

TEST(LinkThroughputRecorder, NonPositiveIntervalThrows) {
  EXPECT_THROW(LinkThroughputRecorder(LinkId{0}, Duration::zero()),
               std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("| only |"), std::string::npos);
}

TEST(TextTable, TrailingRuleClosesTableOnce) {
  TextTable t({"a"});
  t.add_row({"x"});
  t.add_rule();
  EXPECT_EQ(t.render(),
            "+---+\n"
            "| a |\n"
            "+---+\n"
            "| x |\n"
            "+---+\n");
}

TEST(TextTable, NumFormatter) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(1000.0, 0), "1000");
}

TEST(Plot, RendersSeriesGlyphs) {
  Series s1{"one", {{0, 0}, {1, 1}, {2, 2}}};
  Series s2{"two", {{0, 2}, {1, 1}, {2, 0}}};
  const std::string out = render_plot({s1, s2});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_NE(out.find("two"), std::string::npos);
}

TEST(Plot, EmptySeriesSafe) {
  EXPECT_EQ(render_plot({}), "(no data)\n");
  Series empty{"e", {}};
  EXPECT_EQ(render_plot({empty}), "(no data)\n");
}

TEST(Plot, CdfSeriesMonotone) {
  Cdf cdf;
  for (int i = 0; i < 100; ++i) cdf.add(i);
  const Series s = cdf_series("cdf", cdf, 20);
  ASSERT_EQ(s.points.size(), 20u);
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    EXPECT_GE(s.points[i].second, s.points[i - 1].second);
  }
}

TEST(Plot, CircleRendersCoveredArcs) {
  CircularIntervalSet set(Duration::millis(100));
  set.add(Arc{Duration::millis(0), Duration::millis(50)});
  const std::string out = render_circle({set}, {'#'});
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(Plot, Sparkline) {
  EXPECT_EQ(sparkline({}), "");
  const std::string s = sparkline({0, 1, 2, 3});
  EXPECT_FALSE(s.empty());
  // Flat series renders the lowest block everywhere.
  const std::string flat = sparkline({5, 5, 5});
  EXPECT_EQ(flat, "▁▁▁");
}

}  // namespace
}  // namespace ccml
