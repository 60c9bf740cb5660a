#include "cc/wfq.h"

namespace ccml {

void WfqPolicy::allocate(Network& net) {
  auto residual = full_residual(net);
  fill(net, net.active_slots(), residual, /*weighted=*/true);
}

}  // namespace ccml
