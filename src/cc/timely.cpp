#include "cc/timely.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ckpt/snapshot.h"
#include "net/network.h"
#include "obs/trace_bus.h"

namespace ccml {

namespace {

// Out of line so the per-flow rate loop stays tight when tracing is off
// (same split as DCQCN's emit_rate_event).  TIMELY has no alpha, so value2
// carries the normalized RTT gradient that drove the decrease.
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

TimelyPolicy::TimelyPolicy(TimelyConfig config) : config_(config) {
  assert(config_.t_high > config_.t_low);
  assert(config_.beta > 0.0 && config_.beta <= 1.0);
  assert(config_.update_interval.is_positive());
}

void TimelyPolicy::resize_soa(std::size_t n) {
  rate_bps_.resize(n);
  line_bps_.resize(n);
  delta_bps_.resize(n);
  ewma_col_.resize(n);
  grad_col_.resize(n);
  prev_rtt_ns_.resize(n);
  cadence_.resize(n);
  good_rounds_.resize(n);
}

void TimelyPolicy::on_flow_started(Network& net, Flow& flow) {
  links_.ensure_links(net.topology().link_count());
  const Rate line = route_line_rate(net, flow);
  const Rate delta =
      flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : config_.delta;
  const std::uint32_t slot = net.slot_of(flow.id);
  if (rate_bps_.size() <= slot) resize_soa(net.slab_size());
  line_bps_[slot] = line.bits_per_sec();
  rate_bps_[slot] = line.bits_per_sec();  // RDMA starts at line rate
  delta_bps_[slot] = delta.bits_per_sec();
  ewma_col_[slot] = 0.0;
  grad_col_[slot] = 0.0;
  prev_rtt_ns_[slot] = 0;
  cadence_.reset(slot);
  good_rounds_[slot] = 0;
  slots_[flow.id] = slot;
  net.set_rate(slot, line);
}

void TimelyPolicy::on_flow_finished(Network& /*net*/, const Flow& flow) {
  // The slot's state is left stale; a reused slot is overwritten on start.
  slots_.erase(flow.id);
}

void TimelyPolicy::on_link_capacity_changed(Network& net, LinkId /*link*/) {
  // Cached line rates go stale when capacity changes mid-run (brownout or
  // restoration); refresh every active flow — faults are rare events.
  for (const std::uint32_t slot : net.active_slots()) {
    const Flow& flow = net.flow_at(slot);
    const Rate line = route_line_rate(net, flow);
    line_bps_[slot] = line.bits_per_sec();
    rate_bps_[slot] = std::min(rate_bps_[slot], line.bits_per_sec());
    net.set_rate(slot, Rate::bps(rate_bps_[slot]));
  }
}

void TimelyPolicy::update_rates(Network& net, TimePoint now, Duration dt) {
  links_.ensure_links(net.topology().link_count());
  TraceBus* bus = net.trace_bus();
  if (bus != bus_cache_) {
    bus_cache_ = bus;
    c_decrease_ = bus ? &bus->counter("timely.decreases") : nullptr;
  }

  // Queue integration per link (same fluid model as the DCQCN CP); only
  // links carrying flows or draining leftover backlog are touched (the
  // shared slab's hot + wet two-pass loop — a drained wet link's true
  // arrival sum is zero once its flows departed).
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

  // Per flow, once per update interval: sample the RTT, filter its
  // gradient, and step the rate.  The RTT sum keeps the Duration int64-ns
  // wrappers; the route walk reads the network's flat link array and rates
  // go straight into the network slab.
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

    const Duration prev = Duration::nanos(prev_rtt_ns_[slot]);
    const double diff_us = rtt.to_micros() - prev.to_micros();
    prev_rtt_ns_[slot] = rtt.ns();
    ewma_col_[slot] = (1.0 - ewma_a) * ewma_col_[slot] + ewma_a * diff_us;
    const double gradient = ewma_col_[slot] / base_us;
    grad_col_[slot] = gradient;

    double rate = rate_bps_[slot];
    // MLTCP wrap: the additive step scales with comm-phase progress; the
    // gradient machine itself is untouched.
    double delta = delta_bps_[slot];
    if (scaling) delta = delta * (1.0 + net.progress_at(slot));
    bool decreased = false;
    if (rtt < config_.t_low) {
      rate += delta;
      ++good_rounds_[slot];
    } else if (rtt > config_.t_high) {
      const double shrink =
          1.0 - config_.beta * (1.0 - config_.t_high / rtt);
      rate = rate * shrink;
      good_rounds_[slot] = 0;
      decreased = true;
    } else if (gradient <= 0.0) {
      ++good_rounds_[slot];
      const int n = good_rounds_[slot] >= config_.hai_threshold ? 5 : 1;
      rate += delta * static_cast<double>(n);
    } else {
      rate = rate * (1.0 - config_.beta * std::min(gradient, 1.0));
      good_rounds_[slot] = 0;
      decreased = true;
    }
    // Clamp to [min_rate, line_rate]; where a brownout pushes the line rate
    // below min_rate the line rate wins (std::clamp would need lo <= hi).
    rate = std::min(std::max(rate, min_bps), line_bps_[slot]);
    rate_bps_[slot] = rate;
    rates[slot] = rate;
    if (decreased && bus_cache_ != nullptr) [[unlikely]] {
      emit_decrease_event(*bus_cache_, *c_decrease_, now, net.flow_at(slot),
                          rate, gradient);
    }
  }
}

double TimelyPolicy::rate_bound_bps(const Network& /*net*/,
                                    std::uint32_t slot) const {
  // Every rate update clamps to [min_rate, line_rate]; min_rate can exceed
  // the line rate of a browned-out route, so the bound covers both.
  return std::max(line_bps_[slot], config_.min_rate.bits_per_sec());
}

Bytes TimelyPolicy::link_queue(LinkId link) const {
  if (!link.valid() || static_cast<std::size_t>(link.value) >= links_.size()) {
    return Bytes::zero();
  }
  return links_[link.value].queue;
}

TimelyPolicy::FlowDiag TimelyPolicy::diag(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  return {Rate::bps(rate_bps_[slot]), Duration::nanos(prev_rtt_ns_[slot]),
          grad_col_[slot]};
}

std::string TimelyPolicy::serialize_state() const {
  // Ascending flow id, same contract as DcqcnPolicy::serialize_state.
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
    out.put_f64(delta_bps_[slot]);
    out.put_i64(prev_rtt_ns_[slot]);
    out.put_f64(ewma_col_[slot]);
    out.put_u32(static_cast<std::uint32_t>(good_rounds_[slot]));
    out.put_i64(cadence_.since_ns(slot));
    out.put_f64(grad_col_[slot]);
  }
  out.put_u64(links_.size());
  for (const LinkState& l : links_.links()) out.put_f64(l.queue.count());
  out.put_u8(links_.queues_clear() ? 1 : 0);
  return out.take();
}

}  // namespace ccml
