#include "cluster/placement.h"

#include <cassert>

namespace ccml {

std::vector<JobPath> ring_paths(const Topology& topo, const Router& router,
                                const std::vector<NodeId>& hosts,
                                std::uint64_t ecmp_salt) {
  std::vector<JobPath> paths;
  if (hosts.size() < 2) return paths;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[(i + 1) % hosts.size()];
    Route route = router.pick(src, dst, Router::flow_hash(src, dst, ecmp_salt));
    assert(!route.empty());
    paths.push_back({src, dst, std::move(route)});
  }
  (void)topo;
  return paths;
}

}  // namespace ccml
