// The per-flow lifecycle every rate machine in the zoo shares: TIMELY,
// Swift, BBR-lite and the table policy derive from RateMachine and keep only
// their config, their own per-flow and per-link state, and their decision
// rule.  DCQCN keeps its own lifecycle (its lazy ledger owns it).
//
// The scaffold owns the slot map, the rate and line-rate columns, the fixed
// decision cadence, the link-queue slab and its congestible hot set, flow
// start / finish, the line-rate refresh on a capacity change, the fused
// burst loop, rate_bound_bps / link_queue / quiescent, the trace-bus binding
// and the serialize_state() frame.  The transport is the CRTP `Derived`; its
// hooks are plain member functions that the per-flow loop calls statically,
// so the loop carries no virtual call.
//
// Required hooks on Derived (private, with RateMachine a friend):
//   FlowState start_flow(const Flow& flow)
//       the transport's per-flow state for a starting flow;
//   double decide(Network& net, TimePoint now, std::uint32_t slot,
//                 std::int64_t elapsed_ns)
//       one decision, due `elapsed_ns` after the previous one; returns the
//       new rate (already clamped) and emits the transport's trace events;
//   void put_flow(StateBuf& out, const FlowState& f,
//                 std::int64_t since_ns) const
//       the transport's per-flow fields of the serialize_state() frame,
//       `since_ns` being the cadence accumulator.
// Optional hooks (the scaffold's defaults below apply otherwise):
//   interval_ns(slot), observe_tick(...), mark_link(...), put_tail(out).
//
// Bit-identity contract: the arithmetic and iteration order are those of
// the four per-transport copies this scaffold replaced; the golden hashes
// in tests/cc_transport_zoo_test.cpp and the scalar oracles in
// tests/cc_kernel_parity_test.cpp pin the bytes.  The queue pass steps only
// the congestible links (congestible_links, cc/policy/slab.h) plus the wet
// list.  Every other link's queue stays +0.0, and a transport's own link
// state there stays what a pass with arrival <= capacity leaves (BBR's
// drain fraction 1.0, the table's keep-log 0.0), so skipping it changes no
// bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/policy/signals.h"
#include "cc/policy/slab.h"
#include "ckpt/snapshot.h"
#include "net/network.h"
#include "net/policy.h"
#include "obs/trace_event.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

/// The per-link queue every rate machine integrates; a transport that keeps
/// more per link (BBR's drain fraction, the table's marking) extends it.
struct QueueLink {
  double queue_b = 0.0;     ///< egress backlog, bytes
  std::uint64_t stamp = 0;  ///< last queue pass that touched this link
};

/// TIMELY's EWMA filter on the RTT difference between decisions, shared by
/// Swift and the table policy (weight kGradientEwma).
struct RttGradient {
  std::int64_t prev_rtt_ns = 0;  ///< previous sample; 0 before the first
  double ewma_us = 0.0;          ///< smoothed RTT difference per decision

  /// Feeds one RTT sample; returns the filtered difference normalized by
  /// the base RTT (positive = queues growing).  With `guard_first` a flow's
  /// first sample counts as no change.  Without it the first difference is
  /// taken against a zero previous RTT, which TIMELY's goldens pin.
  double update(Duration rtt, bool guard_first) {
    const double diff_us =
        guard_first && prev_rtt_ns == 0
            ? 0.0
            : rtt.to_micros() - Duration::nanos(prev_rtt_ns).to_micros();
    prev_rtt_ns = rtt.ns();
    ewma_us = (1.0 - kGradientEwma) * ewma_us + kGradientEwma * diff_us;
    return gradient();
  }
  double gradient() const { return ewma_us / kBaseRtt.to_micros(); }
};

/// The trace-bus binding of one rate machine: its counter is re-resolved
/// when the network's bus changes, and events leave out of line so the
/// per-flow loop stays tight when tracing is off.
class FlowEvents {
 public:
  explicit FlowEvents(const char* counter) : counter_name_(counter) {}

  void bind(TraceBus* bus) {
    if (bus != bus_) rebind(bus);
  }
  bool on() const { return bus_ != nullptr; }
  /// Emits one per-flow event and bumps the counter.
  void emit(TraceEventKind kind, TimePoint now, const Flow& flow, double value,
            double value2, const char* detail = nullptr) const;

 private:
  void rebind(TraceBus* bus);

  const char* counter_name_;
  TraceBus* bus_ = nullptr;
  Counter* counter_ = nullptr;
};

template <typename Derived, typename LinkState, typename FlowState>
class RateMachine : public BandwidthPolicy, public QueuePassWork {
 public:
  void on_flow_started(Network& net, Flow& flow) final;
  void on_flow_finished(Network& net, const Flow& flow) final;
  /// Cached line rates go stale when capacity changes mid-run (brownout or
  /// restoration); every active flow is refreshed — faults are rare.
  void on_link_capacity_changed(Network& net, LinkId link) final;
  void update_rates(Network& net, TimePoint now, Duration dt) final;
  /// The fused ticks as one loop: the slab sizing, the bus binding and dt
  /// hoisted out of it, byte progress integrated inline.  Each tick's
  /// arithmetic and order are update_rates'.
  void update_rates_burst(Network& net, TimePoint first, Duration dt,
                          std::uint64_t ticks) final;
  /// Route line rate, floored at kRateFloor: every decision clamps to
  /// [kRateFloor, line_rate], and the floor can exceed the line rate of a
  /// browned-out route.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const final;
  Bytes link_queue(LinkId link) const final;
  /// With all queues drained nothing evolves between steps while no flow is
  /// active, so the kernel may fast-forward across compute phases.
  bool quiescent() const final { return links_.queues_clear(); }
  /// Flows in ascending-id order (see the BandwidthPolicy contract): id,
  /// slot, rate, line rate and the transport's fields; then every link
  /// queue, the quiescence byte and the transport's tail (its RNG stream).
  std::string serialize_state() const final;
  std::uint64_t queue_link_passes() const final {
    return links_.link_passes();
  }

 protected:
  /// `interval` is the decision cadence unless Derived::interval_ns says
  /// otherwise.  `representation_byte` leads the frame with a 0 byte
  /// (TIMELY and Swift write one; their goldens pin it).
  RateMachine(Duration interval, const char* counter, bool representation_byte)
      : events_(counter),
        interval_ns_(interval.ns()),
        representation_byte_(representation_byte) {}

  static constexpr double kMinBps = kRateFloor.bits_per_sec();

  /// The RTT a flow would sample now: kBaseRtt plus each route link's
  /// queueing delay.  `visit` sees every route link's state, in route order.
  /// An empty queue adds transfer_time(0) = +0 ns, so it is skipped.
  template <typename Visit>
  Duration sample_rtt(const Network& net, std::uint32_t slot,
                      Visit&& visit) const {
    Duration rtt = kBaseRtt;
    for (const std::int32_t l : net.route_links(slot)) {
      const double queue_b = links_[l].queue_b;
      if (queue_b != 0.0) {
        const Rate cap = net.effective_capacity(LinkId{l});
        if (cap.is_positive()) rtt += transfer_time(Bytes::of(queue_b), cap);
      }
      visit(links_[l]);
    }
    return rtt;
  }
  Duration sample_rtt(const Network& net, std::uint32_t slot) const {
    return sample_rtt(net, slot, [](const LinkState&) {});
  }

  /// Clamps to [kRateFloor, line_rate]; where a brownout pushes the line
  /// rate below the floor the line rate wins (std::clamp would need
  /// lo <= hi).
  double clamp_rate(double rate, std::uint32_t slot) const {
    return std::min(std::max(rate, kMinBps), line_bps_[slot]);
  }

  // Default hooks; Derived shadows the ones it needs.
  std::int64_t interval_ns(std::uint32_t /*slot*/) const {
    return interval_ns_;
  }
  /// Runs every tick for every active flow, before its cadence check, with
  /// the rate the flow sent at over the tick.
  void observe_tick(const Network& /*net*/, std::uint32_t /*slot*/,
                    double /*rate_bps*/, double /*dt_s*/) {}
  /// Refreshes a link's own state after its queue update.
  void mark_link(LinkState& /*link*/, double /*cap_bps*/,
                 double /*arrival_bps*/) const {}
  void put_tail(StateBuf& /*out*/) const {}

  std::unordered_map<FlowId, std::uint32_t> slots_;
  // Slot-indexed columns (the network's stable slab slots, hash-free on the
  // per-step path); a finished flow's slot is left stale and overwritten
  // when the slot is reused.
  std::vector<double> rate_bps_;
  std::vector<double> line_bps_;
  std::vector<std::int64_t> since_ns_;  ///< time since the last decision
  std::vector<FlowState> flows_;
  LinkQueueSlab<LinkState> links_;
  FlowEvents events_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  /// One tick: the queue pass, then every flow's observation and due
  /// decision.  The caller has sized the slab and bound the bus.
  void tick(Network& net, TimePoint now, std::int64_t dt_ns, double dt_s);

  /// The queue pass's hot set: links that can congest under the current
  /// flow set (congestible_links).  Rebuilt on flow start and finish and on
  /// capacity changes; links still draining backlog ride the wet list.
  std::vector<std::int32_t> hot_links_;

  const std::int64_t interval_ns_;
  const bool representation_byte_;
};

// The member definitions are instantiated once, in the transport's own
// source file (`template class RateMachine<...>;`), where its hooks are
// visible and inline into the loop; its header declares that instantiation
// `extern`.

template <typename D, typename L, typename F>
void RateMachine<D, L, F>::on_flow_started(Network& net, Flow& flow) {
  links_.ensure_links(net.topology().link_count());
  const Rate line = route_line_rate(net, flow);
  const std::uint32_t slot = net.slot_of(flow.id);
  if (rate_bps_.size() <= slot) {
    const std::size_t n = net.slab_size();
    rate_bps_.resize(n);
    line_bps_.resize(n);
    since_ns_.resize(n);
    flows_.resize(n);
  }
  line_bps_[slot] = line.bits_per_sec();
  rate_bps_[slot] = line.bits_per_sec();  // RDMA starts at line rate
  // The first decision fires one full interval after the flow starts.
  since_ns_[slot] = 0;
  flows_[slot] = self().start_flow(flow);
  slots_[flow.id] = slot;
  net.set_rate(slot, line);
  congestible_links(net, *this, hot_links_);
}

template <typename D, typename L, typename F>
void RateMachine<D, L, F>::on_flow_finished(Network& net, const Flow& flow) {
  slots_.erase(flow.id);
  congestible_links(net, *this, hot_links_);
}

template <typename D, typename L, typename F>
void RateMachine<D, L, F>::on_link_capacity_changed(Network& net,
                                                    LinkId /*link*/) {
  for (const std::uint32_t slot : net.active_slots()) {
    const Rate line = route_line_rate(net, net.flow_at(slot));
    line_bps_[slot] = line.bits_per_sec();
    rate_bps_[slot] = std::min(rate_bps_[slot], line.bits_per_sec());
    net.set_rate(slot, Rate::bps(rate_bps_[slot]));
  }
  congestible_links(net, *this, hot_links_);
}

// flatten: the slab pass and the transport's hooks inline into one loop,
// as in the per-transport copies this replaced; left to the inliner,
// decide() and the slab pass stayed out of line.
template <typename D, typename L, typename F>
[[gnu::flatten]] void RateMachine<D, L, F>::update_rates(Network& net,
                                                         TimePoint now,
                                                         Duration dt) {
  links_.ensure_links(net.topology().link_count());
  events_.bind(net.trace_bus());
  tick(net, now, dt.ns(), dt.to_seconds());
}

// The burst's preconditions (no flow starts, finishes or reroutes, no
// capacity change, no observer) keep the slab size, the bus and the hot set
// fixed across it, so they are read once.
template <typename D, typename L, typename F>
[[gnu::flatten]] void RateMachine<D, L, F>::update_rates_burst(
    Network& net, TimePoint first, Duration dt, std::uint64_t ticks) {
  links_.ensure_links(net.topology().link_count());
  events_.bind(net.trace_bus());
  const std::int64_t dt_ns = dt.ns();
  const double dt_s = dt.to_seconds();
  TimePoint now = first;
  for (std::uint64_t k = 0; k < ticks; ++k) {
    tick(net, now, dt_ns, dt_s);
    net.integrate_progress_unchecked(dt_s);
    now = now + dt;
  }
}

template <typename D, typename L, typename F>
void RateMachine<D, L, F>::tick(Network& net, TimePoint now,
                                std::int64_t dt_ns, double dt_s) {
  D& d = self();
  // Queue pass: integrate each congestible link's backlog (the slab drains
  // leftover wet links against their true arrival, zero once their flows
  // departed), then let the transport refresh its own link state.
  const auto integrate = [&](std::size_t l, double arrival_bps)
      __attribute__((always_inline)) {
    const double cap_bps =
        net.effective_capacity(LinkId{static_cast<std::int32_t>(l)})
            .bits_per_sec();
    L& link = links_[l];
    double q = link.queue_b + (arrival_bps - cap_bps) * dt_s / 8.0;
    if (q < 0.0) q = 0.0;
    link.queue_b = q;
    d.mark_link(link, cap_bps, arrival_bps);
    return q != 0.0;
  };
  links_.step(net, hot_links_, integrate);

  // Per flow: observe the tick, and once per decision interval let the
  // transport step the rate straight into the network slab.  A decision
  // interval longer than a fused burst simply stays quiet across it;
  // leftover phase is not carried.
  const std::span<double> rates = net.mutable_rates_bps();
  for (const std::uint32_t slot : net.active_slots()) {
    d.observe_tick(net, slot, rates[slot], dt_s);
    std::int64_t& since = since_ns_[slot];
    since += dt_ns;
    if (since < d.interval_ns(slot)) {
      rates[slot] = rate_bps_[slot];
      continue;
    }
    const std::int64_t elapsed_ns = since;
    since = 0;
    const double rate = d.decide(net, now, slot, elapsed_ns);
    rate_bps_[slot] = rate;
    rates[slot] = rate;
  }
}

template <typename D, typename L, typename F>
double RateMachine<D, L, F>::rate_bound_bps(const Network& /*net*/,
                                            std::uint32_t slot) const {
  return std::max(line_bps_[slot], kMinBps);
}

template <typename D, typename L, typename F>
Bytes RateMachine<D, L, F>::link_queue(LinkId link) const {
  if (!link.valid() || static_cast<std::size_t>(link.value) >= links_.size()) {
    return Bytes::zero();
  }
  return Bytes::of(links_[link.value].queue_b);
}

template <typename D, typename L, typename F>
std::string RateMachine<D, L, F>::serialize_state() const {
  StateBuf out;
  if (representation_byte_) out.put_u8(0);
  const auto flows = sorted_flow_slots(slots_);
  out.put_u64(flows.size());
  for (const auto& [id, slot] : flows) {
    out.put_i64(id);
    out.put_u32(slot);
    out.put_f64(rate_bps_[slot]);
    out.put_f64(line_bps_[slot]);
    self().put_flow(out, flows_[slot], since_ns_[slot]);
  }
  out.put_u64(links_.size());
  for (const L& l : links_.links()) out.put_f64(l.queue_b);
  out.put_u8(links_.queues_clear() ? 1 : 0);
  self().put_tail(out);
  return out.take();
}

}  // namespace ccml
