#include "cluster/placement.h"

#include <gtest/gtest.h>

namespace ccml {
namespace {

TEST(RingPaths, ClosesTheRing) {
  const Topology topo =
      Topology::leaf_spine(2, 4, 2, Rate::gbps(50), Rate::gbps(100));
  const Router router(topo);
  const auto hosts = topo.hosts();
  const std::vector<NodeId> ring = {hosts[0], hosts[1], hosts[4]};
  const auto paths = ring_paths(topo, router, ring, 7);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].src, hosts[0]);
  EXPECT_EQ(paths[0].dst, hosts[1]);
  EXPECT_EQ(paths[2].src, hosts[4]);
  EXPECT_EQ(paths[2].dst, hosts[0]);  // wraps around
  for (const auto& p : paths) EXPECT_FALSE(p.route.empty());
}

TEST(RingPaths, SingleWorkerHasNoPaths) {
  const Topology topo =
      Topology::leaf_spine(1, 2, 1, Rate::gbps(50), Rate::gbps(100));
  const Router router(topo);
  EXPECT_TRUE(ring_paths(topo, router, {topo.hosts()[0]}, 0).empty());
}

}  // namespace
}  // namespace ccml
