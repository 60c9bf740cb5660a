// Weighted fair queueing at fluid granularity: weighted max-min allocation
// using each flow's FlowSpec::weight, recomputed whenever a flow starts or
// ends or a link's capacity changes (see IdealPolicy).  Models switches
// dividing bandwidth in configured proportions (paper §4, priority-queue
// direction, when queues are weighted rather than strict).
#pragma once

#include "cc/water_fill.h"

namespace ccml {

class WfqPolicy : public IdealPolicy {
 public:
  const char* name() const override { return "wfq"; }

 protected:
  void allocate(Network& net) override;
};

}  // namespace ccml
