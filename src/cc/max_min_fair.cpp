#include "cc/max_min_fair.h"

namespace ccml {

void MaxMinFairPolicy::allocate(Network& net) {
  auto residual = full_residual(net);
  fill(net, net.active_slots(), residual, /*weighted=*/false);
}

}  // namespace ccml
