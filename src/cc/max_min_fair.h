// Ideal fair sharing: global max-min fair allocation, recomputed whenever a
// flow starts or ends or a link's capacity changes (see IdealPolicy).
//
// This models what a well-tuned fair congestion controller converges to and
// serves as the paper's "fair sharing" baseline without DCQCN's transient
// dynamics.
#pragma once

#include "cc/water_fill.h"

namespace ccml {

class MaxMinFairPolicy : public IdealPolicy {
 public:
  const char* name() const override { return "max-min-fair"; }

 protected:
  void allocate(Network& net) override;
};

}  // namespace ccml
