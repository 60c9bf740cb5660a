#include "cc/priority.h"

#include <map>
#include <vector>

namespace ccml {

void PriorityPolicy::allocate(Network& net) {
  std::map<int, std::vector<std::uint32_t>> classes;  // high priority first
  for (const std::uint32_t slot : net.active_slots()) {
    classes[net.flow_at(slot).spec.priority].push_back(slot);
  }
  auto residual = full_residual(net);
  for (const auto& [prio, members] : classes) {
    fill(net, members, residual, /*weighted=*/true);
  }
}

}  // namespace ccml
