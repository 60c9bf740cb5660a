// Strict-priority link sharing (paper §4, direction (ii)).
//
// Flows are grouped by FlowSpec::priority (smaller value = more important).
// Classes are filled in order: the highest class water-fills the full
// capacity, the next class fills what remains, and so on.  Jobs sharing a
// link with unique priorities therefore use the link strictly one-at-a-time
// whenever the top job can saturate it — mimicking the desirable side effect
// of unfairness without changing the congestion controller.  Like the other
// ideal policies it recomputes only when a flow starts or ends or a link's
// capacity changes (see IdealPolicy).
#pragma once

#include "cc/water_fill.h"

namespace ccml {

class PriorityPolicy : public IdealPolicy {
 public:
  const char* name() const override { return "strict-priority"; }

 protected:
  void allocate(Network& net) override;
};

}  // namespace ccml
