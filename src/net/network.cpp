#include "net/network.h"

#include "ckpt/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "net/repeat_subtract.h"
#include "obs/trace_bus.h"

namespace ccml {

namespace {

TraceEvent flow_event(TraceEventKind kind, TimePoint t, const Flow& flow,
                      const Network& net) {
  TraceEvent ev;
  ev.time = t;
  ev.kind = kind;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  // Attribute the event to the route's limiting link so per-link analytics
  // (interleaving scores, queue histograms) can group flows by bottleneck —
  // plus the FULL set of links tied at that capacity, so multi-bottleneck
  // analytics charge the flow to every contended hop, not only the first.
  ev.link = net.route_bottleneck(flow.spec.route);
  ev.link_count = static_cast<std::uint8_t>(net.route_contended_links(
      flow.spec.route, ev.links, kTraceMaxContendedLinks));
  return ev;
}

// Out of line so the completion loop in step() stays tight when tracing is
// off (the event construction otherwise inflates the hot function).
[[gnu::noinline]] void emit_finish_event(TraceBus& bus, Counter& counter,
                                         TimePoint finish, const Flow& flow,
                                         const Network& net) {
  TraceEvent ev = flow_event(TraceEventKind::kFlowFinish, finish, flow, net);
  ev.value = flow.spec.size.count();
  ev.value2 = (finish - flow.start_time).to_millis();
  bus.emit(ev);
  counter.add();
}

}  // namespace

Network::Network(Topology topology, std::unique_ptr<BandwidthPolicy> policy,
                 NetworkConfig config)
    : topo_(std::move(topology)),
      policy_(std::move(policy)),
      config_(config),
      link_flows_(topo_.link_count()),
      link_slots_(topo_.link_count()) {
  assert(policy_ != nullptr);
  assert(config_.goodput_factor > 0.0 && config_.goodput_factor <= 1.0);
  assert(config_.step.is_positive());
  nominal_capacity_.reserve(topo_.link_count());
  for (std::size_t l = 0; l < topo_.link_count(); ++l) {
    nominal_capacity_.push_back(
        topo_.link(LinkId{static_cast<std::int32_t>(l)}).capacity *
        config_.goodput_factor);
  }
  eff_capacity_ = nominal_capacity_;
  capacity_factor_.assign(topo_.link_count(), 1.0);
}

void Network::attach(Simulator& sim) {
  assert(sim_ == nullptr && "attach() must be called once");
  sim_ = &sim;
  anchor_ = sim.now();
  last_step_ = anchor_;
  sim.add_stepper(*this, config_.step);
}

void Network::add_observer(NetObserver& obs) {
  if (observers_.empty() && sim_ != nullptr) {
    // Align the observer clock to the last grid tick at or before now, so
    // gap arithmetic stays exact for observers attached mid-run.  (When
    // observers already exist, realigning would swallow their pending gap.)
    const std::int64_t k = (sim_->now() - anchor_).ns() / config_.step.ns();
    const TimePoint tick = anchor_ + config_.step * k;
    if (tick > last_step_) last_step_ = tick;
  }
  observers_.push_back(&obs);
  if (!obs.quiescence_compatible()) ++blocking_observers_;
}

void Network::flush_observers() {
  if (observers_.empty() || sim_ == nullptr) return;
  const std::int64_t k = (sim_->now() - anchor_).ns() / config_.step.ns();
  const TimePoint tick = anchor_ + config_.step * k;
  if (tick > last_step_) {
    for (NetObserver* obs : observers_) {
      obs->on_idle_gap(*this, last_step_, tick);
    }
    last_step_ = tick;
  }
}

std::string Network::serialize_state() const {
  StateBuf out;
  out.put_i64(next_flow_id_);
  out.put_u64(capacity_factor_.size());
  for (const double f : capacity_factor_) out.put_f64(f);
  out.put_u64(active_ids_.size());
  for (std::size_t i = 0; i < active_ids_.size(); ++i) {
    const std::uint32_t slot = active_slots_[i];
    const Flow& f = slab_[slot].flow;
    out.put_i64(active_ids_[i].value);
    out.put_u32(slot);
    out.put_u32(static_cast<std::uint32_t>(f.spec.job.value));
    out.put_f64(size_b_[slot]);
    out.put_f64(remaining_b_[slot]);
    out.put_f64(rate_bps_[slot]);
    const auto links = route_links(slot);
    out.put_u64(links.size());
    for (const std::int32_t l : links) out.put_u32(static_cast<std::uint32_t>(l));
  }
  out.put_u64(parked_ids_.size());
  for (const FlowId id : parked_ids_) {
    const std::uint32_t slot = index_.at(id.value);
    out.put_i64(id.value);
    out.put_f64(size_b_[slot]);
    out.put_f64(remaining_b_[slot]);
  }
  return out.take();
}

void Network::replace_policy(std::unique_ptr<BandwidthPolicy> policy) {
  assert(policy != nullptr);
  policy_ = std::move(policy);
  // Re-introduce every active flow to the new transport in deterministic
  // (ascending id) order.  on_flow_started resets the flow's rate to the
  // policy's starting allocation — identical to what a freshly unparked
  // flow experiences — while remaining_b_ keeps the delivered progress.
  for (std::size_t i = 0; i < active_ids_.size(); ++i) {
    policy_->on_flow_started(*this, slab_[active_slots_[i]].flow);
  }
}

void Network::set_trace_bus(TraceBus* bus) {
  bus_ = bus;
  if (bus_ != nullptr) {
    c_flows_started_ = &bus_->counter("net.flows_started");
    c_flows_finished_ = &bus_->counter("net.flows_finished");
    c_flows_aborted_ = &bus_->counter("net.flows_aborted");
    c_flows_parked_ = &bus_->counter("net.flows_parked");
    c_reroutes_ = &bus_->counter("net.reroutes");
  }
}

FlowId Network::start_flow(FlowSpec spec, FlowCompletionFn on_complete) {
  assert(sim_ != nullptr && "attach() before starting flows");
  assert(!spec.route.empty() && "flows need a route");
  const FlowId id{next_flow_id_++};
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    rate_bps_.push_back(0.0);
    remaining_b_.push_back(0.0);
    size_b_.push_back(0.0);
    route_off_.push_back(0);
    route_len_.push_back(0);
  }
  Flow& flow = slab_[slot].flow;
  flow.id = id;
  flow.spec = std::move(spec);
  flow.start_time = sim_->now();
  rate_bps_[slot] = 0.0;
  remaining_b_[slot] = flow.spec.size.count();
  size_b_[slot] = flow.spec.size.count();
  slab_[slot].on_complete = std::move(on_complete);
  slab_[slot].parked = false;
  index_.emplace(id.value, slot);
  bool rerouted = false;
  if (route_severed(flow.spec.route) && reroute_) {
    Route alt = reroute_(flow);
    if (!alt.empty() && !route_severed(alt)) {
      flow.spec.route = std::move(alt);
      rerouted = true;
    }
  }
  cache_route(slot, flow.spec.route);
  const bool parked = route_severed(flow.spec.route);
  if (parked) {
    // No usable path right now: park until a link-up requeues the flow.
    slab_[slot].parked = true;
    // Ids are handed out monotonically, so appending keeps the list sorted.
    parked_ids_.push_back(id);
  } else {
    activate_flow(id, slot);
  }
  if (bus_ != nullptr) {
    TraceEvent ev =
        flow_event(TraceEventKind::kFlowStart, sim_->now(), flow, *this);
    ev.value = flow.spec.size.count();
    bus_->emit(ev);
    c_flows_started_->add();
    if (rerouted) {
      bus_->emit(
          flow_event(TraceEventKind::kFlowReroute, sim_->now(), flow, *this));
      c_reroutes_->add();
    }
    if (parked) {
      bus_->emit(
        flow_event(TraceEventKind::kFlowPark, sim_->now(), flow, *this));
      c_flows_parked_->add();
    }
  }
  return id;
}

bool Network::route_severed(const Route& route) const {
  for (const LinkId lid : route.links) {
    if (capacity_factor_[lid.value] <= 0.0) return true;
  }
  return false;
}

bool Network::is_parked(FlowId id) const {
  const auto it = index_.find(id.value);
  return it != index_.end() && slab_[it->second].parked;
}

void Network::activate_flow(FlowId id, std::uint32_t slot) {
  Flow& flow = slab_[slot].flow;
  for (const LinkId lid : flow.spec.route.links) {
    if (link_flows_[lid.value].empty()) {
      used_links_.insert(
          std::lower_bound(used_links_.begin(), used_links_.end(), lid), lid);
    }
    link_flows_[lid.value].push_back(id);
    link_slots_[lid.value].push_back(slot);
  }
  // Unparked flows may carry ids smaller than the newest active ones, so
  // insert at the sorted position rather than appending.
  const auto pos = std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
  active_slots_.insert(active_slots_.begin() + (pos - active_ids_.begin()),
                       slot);
  active_ids_.insert(pos, id);
  policy_->on_flow_started(*this, flow);
}

void Network::park_flow(FlowId id, std::uint32_t slot) {
  Flow& flow = slab_[slot].flow;
  const auto pos = std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
  assert(pos != active_ids_.end() && *pos == id);
  active_slots_.erase(active_slots_.begin() + (pos - active_ids_.begin()));
  active_ids_.erase(pos);
  for (const LinkId lid : flow.spec.route.links) {
    auto& ids = link_flows_[lid.value];
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    auto& slots = link_slots_[lid.value];
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
    if (ids.empty()) {
      used_links_.erase(
          std::lower_bound(used_links_.begin(), used_links_.end(), lid));
    }
  }
  rate_bps_[slot] = 0.0;
  slab_[slot].parked = true;
  parked_ids_.insert(
      std::lower_bound(parked_ids_.begin(), parked_ids_.end(), id), id);
  // The policy drops its per-flow state; the eventual requeue looks like a
  // fresh flow start (an RDMA connection re-established after path loss).
  policy_->on_flow_finished(*this, flow);
  if (bus_ != nullptr) {
    bus_->emit(
        flow_event(TraceEventKind::kFlowPark, sim_->now(), flow, *this));
    c_flows_parked_->add();
  }
}

bool Network::try_unpark_flow(FlowId id, std::uint32_t slot) {
  Flow& flow = slab_[slot].flow;
  bool rerouted = false;
  if (route_severed(flow.spec.route)) {
    if (!reroute_) return false;
    Route alt = reroute_(flow);
    if (alt.empty() || route_severed(alt)) return false;
    flow.spec.route = std::move(alt);
    rerouted = true;
    cache_route(slot, flow.spec.route);
  }
  const auto pos =
      std::lower_bound(parked_ids_.begin(), parked_ids_.end(), id);
  assert(pos != parked_ids_.end() && *pos == id);
  parked_ids_.erase(pos);
  slab_[slot].parked = false;
  activate_flow(id, slot);
  if (bus_ != nullptr) {
    bus_->emit(
        flow_event(TraceEventKind::kFlowUnpark, sim_->now(), flow, *this));
    if (rerouted) {
      bus_->emit(
          flow_event(TraceEventKind::kFlowReroute, sim_->now(), flow, *this));
      c_reroutes_->add();
    }
  }
  return true;
}

void Network::set_link_capacity_factor(LinkId link, double factor) {
  assert(link.valid() &&
         static_cast<std::size_t>(link.value) < capacity_factor_.size());
  assert(factor >= 0.0 && factor <= 1.0);
  const double old = capacity_factor_[link.value];
  if (old == factor) return;
  capacity_factor_[link.value] = factor;
  eff_capacity_[link.value] = nominal_capacity_[link.value] * factor;
  if (old > 0.0 && factor <= 0.0) {
    // Link went down: every flow crossing it is rerouted (when the provider
    // finds a surviving path) or parked until repair.  Snapshot the list —
    // parking mutates it.
    const std::vector<FlowId> affected = link_flows_[link.value];
    for (const FlowId id : affected) {
      const std::uint32_t slot = index_.find(id.value)->second;
      park_flow(id, slot);
      try_unpark_flow(id, slot);
    }
  } else if (old <= 0.0 && factor > 0.0) {
    // Link restored: requeue parked flows whose route (or a reroute) is
    // whole again.  Snapshot — unparking mutates the list.
    const std::vector<FlowId> parked = parked_ids_;
    for (const FlowId id : parked) {
      try_unpark_flow(id, index_.find(id.value)->second);
    }
  }
  policy_->on_link_capacity_changed(*this, link);
}

Network::Slot Network::extract_flow(FlowId id, std::uint32_t slot) {
  Slot out;
  out.flow = std::move(slab_[slot].flow);
  out.on_complete = std::move(slab_[slot].on_complete);
  out.parked = slab_[slot].parked;
  slab_[slot].on_complete = nullptr;
  slab_[slot].parked = false;
  rate_bps_[slot] = 0.0;
  route_live_links_ -= route_len_[slot];
  route_len_[slot] = 0;
  index_.erase(id.value);
  if (out.parked) {
    const auto pos =
        std::lower_bound(parked_ids_.begin(), parked_ids_.end(), id);
    assert(pos != parked_ids_.end() && *pos == id);
    parked_ids_.erase(pos);
    free_slots_.push_back(slot);
    return out;
  }
  const auto pos = std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
  assert(pos != active_ids_.end() && *pos == id);
  active_slots_.erase(active_slots_.begin() + (pos - active_ids_.begin()));
  active_ids_.erase(pos);
  for (const LinkId lid : out.flow.spec.route.links) {
    auto& ids = link_flows_[lid.value];
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    auto& slots = link_slots_[lid.value];
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
    if (ids.empty()) {
      used_links_.erase(
          std::lower_bound(used_links_.begin(), used_links_.end(), lid));
    }
  }
  free_slots_.push_back(slot);
  return out;
}

void Network::abort_flow(FlowId id) {
  const auto it = index_.find(id.value);
  if (it == index_.end()) return;
  const Slot extracted = extract_flow(id, it->second);
  // A parked flow's policy state was already dropped when it parked.
  if (!extracted.parked) policy_->on_flow_finished(*this, extracted.flow);
  if (bus_ != nullptr) {
    bus_->emit(
        flow_event(TraceEventKind::kFlowAbort, sim_->now(), extracted.flow,
                   *this));
    c_flows_aborted_->add();
  }
}

const Flow& Network::flow(FlowId id) const {
  const auto it = index_.find(id.value);
  assert(it != index_.end());
  return slab_[it->second].flow;
}

Flow& Network::flow(FlowId id) {
  const auto it = index_.find(id.value);
  assert(it != index_.end());
  return slab_[it->second].flow;
}

std::uint32_t Network::slot_of(FlowId id) const {
  const auto it = index_.find(id.value);
  assert(it != index_.end());
  return it->second;
}

Rate Network::link_throughput(LinkId link) const {
  double total = 0.0;
  for (const std::uint32_t slot : flow_slots_on_link(link)) {
    total += rate_bps_[slot];
  }
  return Rate::bps(total);
}

double Network::link_utilization(LinkId link) const {
  const Rate cap = effective_capacity(link);
  return cap.is_positive() ? link_throughput(link) / cap : 0.0;
}

void Network::step(TimePoint now, Duration dt) {
  if (!observers_.empty()) {
    // If the kernel fast-forwarded an idle stretch, the grid ticks in
    // (last_step_, now - dt] never executed; report them before this step.
    const TimePoint prev = now - dt;
    if (prev > last_step_) {
      for (NetObserver* obs : observers_) {
        obs->on_idle_gap(*this, last_step_, prev);
      }
    }
  }

  policy_->update_rates(*this, now, dt);

  // Integrate byte progress and collect completions with interpolated
  // finish times.  Completions are fired after all integration so that
  // callbacks observe a consistent network state; they are sorted by finish
  // time for deterministic ordering.  `done_` is a persistent scratch buffer
  // so the steady path performs no allocation.
  done_.clear();
  const double dt_s = dt.to_seconds();
  const double* const rates = rate_bps_.data();
  double* const rem = remaining_b_.data();
  for (const std::uint32_t slot : active_slots_) {
    const double left = rem[slot];
    const double r = rates[slot];
    if (left > 0.0 && r > 0.0) {
      const double moved = r * dt_s / 8.0;
      if (moved >= left) {
        const double frac = left / moved;
        const TimePoint finish = (now - dt) + dt * frac;
        rem[slot] = 0.0;
        done_.push_back({slab_[slot].flow.id, finish});
      } else {
        rem[slot] = left - moved;
      }
    } else if (!(left > 0.0)) {
      // Zero-byte (or already drained) flow: completes at this step.
      done_.push_back({slab_[slot].flow.id, now});
    }
  }
  if (done_.size() > 1) {
    std::sort(done_.begin(), done_.end(),
              [](const Pending& a, const Pending& b) {
                if (a.finish != b.finish) return a.finish < b.finish;
                return a.id < b.id;
              });
  }
  for (const Pending& d : done_) {
    const auto it = index_.find(d.id.value);
    // A completion callback fired earlier in this loop may have aborted a
    // flow that also finished this step; skip it.
    if (it == index_.end()) continue;
    const Slot extracted = extract_flow(d.id, it->second);
    policy_->on_flow_finished(*this, extracted.flow);
    if (bus_ != nullptr) [[unlikely]] {
      emit_finish_event(*bus_, *c_flows_finished_, d.finish, extracted.flow,
                        *this);
    }
    if (extracted.on_complete) extracted.on_complete(extracted.flow, d.finish);
  }

  if (!observers_.empty()) {
    for (NetObserver* obs : observers_) obs->on_step(*this, now);
    last_step_ = now;
  }
}

// Default fused-tick loop: per-tick rate updates interleaved with unchecked
// byte integration, semantically identical to Network::step minus the
// completion scan the caller already proved redundant.
void BandwidthPolicy::update_rates_burst(Network& net, TimePoint first,
                                         Duration dt, std::uint64_t ticks) {
  const double dt_s = dt.to_seconds();
  TimePoint now = first;
  for (std::uint64_t k = 0; k < ticks; ++k) {
    update_rates(net, now, dt);
    net.integrate_progress_unchecked(dt_s);
    now = now + dt;
  }
}

double BandwidthPolicy::rate_bound_bps(const Network& /*net*/,
                                       std::uint32_t /*slot*/) const {
  return std::numeric_limits<double>::infinity();
}

void Network::advance_frozen(double dt_s, std::uint64_t ticks) {
  const double* const rates = rate_bps_.data();
  double* const rem = remaining_b_.data();
  for (const std::uint32_t slot : active_slots_) {
    rem[slot] = repeat_subtract(rem[slot], rates[slot] * dt_s / 8.0, ticks,
                                frozen_work_.ops);
  }
  frozen_work_.flow_ticks += ticks * active_slots_.size();
}

std::uint64_t Network::completion_free_ticks(double dt_s) const {
  if (active_slots_.empty()) return 0;
  constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();
  double min_ticks = std::numeric_limits<double>::infinity();
  for (const std::uint32_t slot : active_slots_) {
    const double bound_bps = policy_->rate_bound_bps(*this, slot);
    const double max_per_tick = bound_bps * dt_s / 8.0;
    const double left = remaining_b_[slot];
    if (!(left > 0.0)) return 0;
    // Bounded at zero (a starved strict-priority class): its bytes cannot
    // move, so it cannot finish, however long the burst.
    if (max_per_tick == 0.0) continue;
    if (!(max_per_tick > 0.0) || !std::isfinite(max_per_tick)) return 0;
    min_ticks = std::min(min_ticks, left / max_per_tick);
  }
  // During k fused ticks a flow loses at most max_per_tick bytes per tick
  // (rates never exceed the policy bound, and FP rounding is monotone), so
  // it stays strictly positive while k < left / max_per_tick.  The 0.1%
  // haircut dwarfs any accumulated-rounding drift by ~ten orders of
  // magnitude; boundary ticks fall back to the checked per-tick path.  No
  // flow able to finish (every bound zero) leaves min_ticks infinite, and
  // a count past 2^64 is out of the conversion's range: both are unbounded.
  const double safe = min_ticks * 0.999 - 2.0;
  if (!(safe < 0x1p64)) return kUnbounded;
  return safe > 0.0 ? static_cast<std::uint64_t>(safe) : 0;
}

TimePoint Network::step_burst(TimePoint first, Duration dt, TimePoint horizon,
                              TimePoint& now_ref) {
  TimePoint t = first;
  const bool watched = !observers_.empty();
  const double dt_s = dt.to_seconds();
  while (true) {
    // Fused segment: while no flow can possibly complete (and nothing
    // watches individual ticks), rate updates and byte integration run as
    // one policy-side loop — the per-tick completion scan, observer checks
    // and stepper dispatch are all hoisted.  Nothing externally visible can
    // happen inside the segment: no completions means no callbacks, events
    // are frozen past `horizon`, and trace emission carries explicit
    // per-tick timestamps.
    if (!watched) {
      const std::uint64_t span =
          static_cast<std::uint64_t>((horizon - t).ns() + dt.ns() - 1) /
          static_cast<std::uint64_t>(dt.ns());
      const std::uint64_t fused =
          std::min(span, completion_free_ticks(dt_s));
      if (fused >= 2) {
        policy_->update_rates_burst(*this, t, dt, fused);
        t = t + dt * static_cast<std::int64_t>(fused);
        now_ref = t - dt;
        if (t >= horizon) break;
        continue;
      }
    }
    now_ref = t;
    Network::step(t, dt);
    t = t + dt;
    // `done_` still holds this tick's completions (cleared on step entry):
    // their callbacks may have scheduled events before the frozen horizon
    // or stopped the run, so the kernel must re-evaluate.  Observers make
    // every tick externally visible.
    if (watched || !done_.empty()) break;
    if (t >= horizon) break;
    if (Network::idle()) break;
  }
  return t;
}

void Network::cache_route(std::uint32_t slot, const Route& route) {
  route_live_links_ -= route_len_[slot];
  route_off_[slot] = static_cast<std::uint32_t>(route_flat_.size());
  route_len_[slot] = static_cast<std::uint32_t>(route.links.size());
  for (const LinkId lid : route.links) route_flat_.push_back(lid.value);
  route_live_links_ += route.links.size();
  // Appending on every (re)route leaves dead slices behind; compact once the
  // flat array is mostly garbage so long-lived churny runs stay bounded.
  if (route_flat_.size() > 1024 &&
      route_flat_.size() > 4 * route_live_links_) {
    std::vector<std::int32_t> packed;
    packed.reserve(route_live_links_);
    for (std::size_t s = 0; s < route_len_.size(); ++s) {
      const std::uint32_t len = route_len_[s];
      if (len == 0) continue;
      const std::uint32_t off = route_off_[s];
      route_off_[s] = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), route_flat_.begin() + off,
                    route_flat_.begin() + off + len);
    }
    route_flat_ = std::move(packed);
  }
}

}  // namespace ccml
