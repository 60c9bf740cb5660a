#include "cc/policy/rate_machine.h"

#include "obs/trace_bus.h"

namespace ccml {

void FlowEvents::rebind(TraceBus* bus) {
  bus_ = bus;
  counter_ = bus ? &bus->counter(counter_name_) : nullptr;
}

void FlowEvents::emit(TraceEventKind kind, TimePoint now, const Flow& flow,
                      double value, double value2, const char* detail) const {
  TraceEvent ev;
  ev.time = now;
  ev.kind = kind;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  ev.value = value;
  ev.value2 = value2;
  ev.detail = detail;
  bus_->emit(ev);
  counter_->add();
}

}  // namespace ccml
