#include "cc/swift.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ckpt/snapshot.h"
#include "net/network.h"
#include "obs/trace_bus.h"

namespace ccml {

namespace {

// Out of line so the per-flow loop stays tight when tracing is off (same
// split as TIMELY's emit_decrease_event); value2 carries the gradient.
[[gnu::noinline]] void emit_decrease_event(TraceBus& bus, Counter& counter,
                                           TimePoint now, const Flow& flow,
                                           double rate_bps, double gradient) {
  TraceEvent ev;
  ev.time = now;
  ev.kind = TraceEventKind::kRateDecrease;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  ev.value = rate_bps;
  ev.value2 = gradient;
  bus.emit(ev);
  counter.add();
}

}  // namespace

SwiftDecision swift_decide(const SwiftConfig& cfg, const CcObservation& obs,
                           double target_us, double rate_bps, double ai_bps,
                           double min_bps, double line_bps) {
  SwiftDecision d;
  const double g = obs.rtt_gradient;
  if (obs.rtt_us <= target_us) {
    // Under target: additive increase, damped linearly toward zero as a
    // positive normalized gradient approaches 1 — the queue is filling even
    // though the target still holds, so probe more gently.
    const double damp = g > 0.0 ? (g < 1.0 ? 1.0 - g : 0.0) : 1.0;
    d.rate_bps = rate_bps + ai_bps * damp;
  } else {
    // Over target: multiplicative decrease proportional to the overshoot
    // fraction, amplified up to 2x by a positive gradient (overshooting
    // *and* still growing), capped at max_mdf per decision.
    double md = cfg.beta * (obs.rtt_us - target_us) / obs.rtt_us;
    if (g > 0.0) md *= 1.0 + (g < 1.0 ? g : 1.0);
    if (md > cfg.max_mdf) md = cfg.max_mdf;
    d.rate_bps = rate_bps * (1.0 - md);
    d.decreased = true;
  }
  if (d.rate_bps < min_bps) d.rate_bps = min_bps;
  if (d.rate_bps > line_bps) d.rate_bps = line_bps;
  return d;
}

SwiftPolicy::SwiftPolicy(SwiftConfig config)
    : config_(config), rng_(config.seed) {
  assert(config_.target_delay > config_.base_rtt);
  assert(config_.beta > 0.0 && config_.beta <= 1.0);
  assert(config_.max_mdf > 0.0 && config_.max_mdf < 1.0);
  assert(config_.update_interval.is_positive());
}

double SwiftPolicy::decision_target_us() {
  const double target_us = config_.target_delay.to_micros();
  if (config_.target_jitter_us == 0.0) return target_us;
  return target_us + config_.target_jitter_us * (2.0 * rng_.uniform() - 1.0);
}

void SwiftPolicy::resize_soa(std::size_t n) {
  rate_bps_.resize(n);
  line_bps_.resize(n);
  ai_bps_.resize(n);
  ewma_col_.resize(n);
  grad_col_.resize(n);
  prev_rtt_ns_.resize(n);
  cadence_.resize(n);
}

void SwiftPolicy::on_flow_started(Network& net, Flow& flow) {
  links_.ensure_links(net.topology().link_count());
  const Rate line = route_line_rate(net, flow);
  const Rate ai = flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : config_.ai;
  const std::uint32_t slot = net.slot_of(flow.id);
  if (rate_bps_.size() <= slot) resize_soa(net.slab_size());
  line_bps_[slot] = line.bits_per_sec();
  rate_bps_[slot] = line.bits_per_sec();  // RDMA starts at line rate
  ai_bps_[slot] = ai.bits_per_sec();
  ewma_col_[slot] = 0.0;
  grad_col_[slot] = 0.0;
  prev_rtt_ns_[slot] = 0;
  cadence_.reset(slot);
  slots_[flow.id] = slot;
  net.set_rate(slot, line);
}

void SwiftPolicy::on_flow_finished(Network& /*net*/, const Flow& flow) {
  // The slot's state is left stale; a reused slot is overwritten on start.
  slots_.erase(flow.id);
}

void SwiftPolicy::on_link_capacity_changed(Network& net, LinkId /*link*/) {
  for (const std::uint32_t slot : net.active_slots()) {
    const Flow& flow = net.flow_at(slot);
    const Rate line = route_line_rate(net, flow);
    line_bps_[slot] = line.bits_per_sec();
    rate_bps_[slot] = std::min(rate_bps_[slot], line.bits_per_sec());
    net.set_rate(slot, Rate::bps(rate_bps_[slot]));
  }
}

void SwiftPolicy::update_rates(Network& net, TimePoint now, Duration dt) {
  links_.ensure_links(net.topology().link_count());
  TraceBus* bus = net.trace_bus();
  if (bus != bus_cache_) {
    bus_cache_ = bus;
    c_decrease_ = bus ? &bus->counter("swift.decreases") : nullptr;
  }

  // Same fluid queue model as TIMELY: integrate each in-use link's backlog,
  // with the shared slab draining leftover wet links.
  const auto integrate = [&](std::size_t l, double arrival_bps)
      __attribute__((always_inline)) {
    const Rate cap =
        net.effective_capacity(LinkId{static_cast<std::int32_t>(l)});
    Bytes q = links_[l].queue + (Rate::bps(arrival_bps) - cap) * dt;
    if (q < Bytes::zero()) q = Bytes::zero();
    links_[l].queue = q;
    return !q.is_zero();
  };
  links_.step(net, net.links_in_use(), integrate);

  // Per flow, once per update interval: assemble the observation (the RTT
  // sum keeps the Duration int64-ns wrappers) and let swift_decide step the
  // rate straight into the network slab.
  const std::span<const std::uint32_t> slots = net.active_slots();
  const std::span<double> rates = net.mutable_rates_bps();
  const std::int64_t dt_ns = dt.ns();
  const std::int64_t interval_ns = config_.update_interval.ns();
  const double ewma_a = config_.ewma_alpha;
  const double base_us = config_.base_rtt.to_micros();
  const double min_bps = config_.min_rate.bits_per_sec();
  const bool scaling = config_.phase_scaling;
  for (const std::uint32_t slot : slots) {
    if (!cadence_.due(slot, dt_ns, interval_ns)) {
      rates[slot] = rate_bps_[slot];
      continue;
    }

    Duration rtt = config_.base_rtt;
    for (const std::int32_t l : net.route_links(slot)) {
      const Rate cap = net.effective_capacity(LinkId{l});
      if (cap.is_positive()) {
        rtt += transfer_time(links_[l].queue, cap);
      }
    }

    // First decision after flow start has no previous sample (prev_rtt is
    // the zero sentinel); a raw difference against zero would spike the
    // gradient by the whole base RTT, so treat it as zero change.
    const std::int64_t prev_ns = prev_rtt_ns_[slot];
    const double diff_us =
        prev_ns == 0 ? 0.0
                     : rtt.to_micros() - Duration::nanos(prev_ns).to_micros();
    prev_rtt_ns_[slot] = rtt.ns();
    ewma_col_[slot] = (1.0 - ewma_a) * ewma_col_[slot] + ewma_a * diff_us;
    const double gradient = ewma_col_[slot] / base_us;
    grad_col_[slot] = gradient;

    // MLTCP wrap: additive step scales with comm-phase progress.
    double ai_bps = ai_bps_[slot];
    const double progress = net.progress_at(slot);
    if (scaling) ai_bps = ai_bps * (1.0 + progress);

    CcObservation obs;
    obs.rtt_us = rtt.to_micros();
    obs.rtt_gradient = gradient;
    obs.phase_progress = progress;
    const SwiftDecision d =
        swift_decide(config_, obs, decision_target_us(), rate_bps_[slot],
                     ai_bps, min_bps, line_bps_[slot]);
    rate_bps_[slot] = d.rate_bps;
    rates[slot] = d.rate_bps;
    if (d.decreased && bus_cache_ != nullptr) [[unlikely]] {
      emit_decrease_event(*bus_cache_, *c_decrease_, now, net.flow_at(slot),
                          d.rate_bps, gradient);
    }
  }
}

double SwiftPolicy::rate_bound_bps(const Network& /*net*/,
                                   std::uint32_t slot) const {
  // swift_decide clamps to [min_rate, line_rate]; min_rate can exceed the
  // line rate of a browned-out route, so the bound covers both.
  return std::max(line_bps_[slot], config_.min_rate.bits_per_sec());
}

Bytes SwiftPolicy::link_queue(LinkId link) const {
  if (!link.valid() || static_cast<std::size_t>(link.value) >= links_.size()) {
    return Bytes::zero();
  }
  return links_[link.value].queue;
}

SwiftPolicy::FlowDiag SwiftPolicy::diag(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  return {Rate::bps(rate_bps_[slot]), Duration::nanos(prev_rtt_ns_[slot]),
          grad_col_[slot]};
}

std::string SwiftPolicy::serialize_state() const {
  // Ascending flow id, same contract as the other transports.
  const auto flows = sorted_flow_slots(slots_);

  StateBuf out;
  // Representation byte, always 0 (see DcqcnPolicy::serialize_state).
  out.put_u8(0);
  out.put_u64(flows.size());
  for (const auto& [id, slot] : flows) {
    out.put_i64(id);
    out.put_u32(slot);
    out.put_f64(rate_bps_[slot]);
    out.put_f64(line_bps_[slot]);
    out.put_f64(ai_bps_[slot]);
    out.put_i64(prev_rtt_ns_[slot]);
    out.put_f64(ewma_col_[slot]);
    out.put_i64(cadence_.since_ns(slot));
    out.put_f64(grad_col_[slot]);
  }
  out.put_u64(links_.size());
  for (const LinkState& l : links_.links()) out.put_f64(l.queue.count());
  out.put_u8(links_.queues_clear() ? 1 : 0);
  out.put_bytes(rng_.save_state());
  return out.take();
}

}  // namespace ccml
