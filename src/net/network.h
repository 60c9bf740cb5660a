// The runtime network: active flows over a static topology, driven as a
// fluid Stepper.  Each step the bandwidth policy assigns rates, then the
// network integrates byte progress and fires completion callbacks (with
// sub-step completion-time interpolation so iteration times are not
// quantized to the step size).
//
// Hot-path layout: flows live in a dense slab whose slot indices are stable
// for the lifetime of the flow (freed slots are recycled via a free-list).
// A sorted cache of active flow ids and their slab slots is maintained
// incrementally on start/abort/finish, so per-step iteration — both the
// Network's own integration and every policy's rate pass — is allocation-
// free and hash-free on the steady path.
//
// The per-flow *hot* state is structure-of-arrays: current rate, bytes
// remaining and flow size are parallel slot-indexed double slabs
// (rates_bps() / remaining_bytes()), and every flow's route is flattened
// into one shared CSR-style link array (route_links(slot)).  Policies and
// the byte-progress integrator stream over these contiguous slabs; the
// cold Flow record (spec, label, route vector, callback) is only touched
// on lifecycle edges.
//
// Link state: the topology's wiring is immutable, but each link carries a
// runtime capacity factor in [0, 1] (1 = healthy, (0, 1) = brownout,
// 0 = down).  When a link goes down, flows routed over it are rerouted via
// the installed reroute provider when an alternate path exists, and *parked*
// otherwise: a parked flow keeps its byte progress and completion callback
// but is invisible to the policy and the integrator until the route heals,
// at which point it is requeued (policy sees a fresh flow start).  Flows
// started while their route is severed park immediately.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/flow.h"
#include "net/policy.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace ccml {

class Counter;
class Network;
class TraceBus;

/// Observer of the network's fluid steps (telemetry hooks).
///
/// The contract is quiescence-aware.  The kernel skips fluid steps entirely
/// while the network is idle (no active flows, policy queues drained), and
/// during such a gap the network state is constant by definition: every
/// link carries zero flows and zero queue.  An observer whose output is a
/// pure function of that (constant) state can therefore reconstruct its
/// skipped samples exactly; it declares `quiescence_compatible()` and
/// receives one `on_idle_gap()` call describing the skipped grid ticks
/// before the next real step.  Observers that do NOT declare compatibility
/// force the network to step through idle stretches (the pre-bus behavior,
/// still available for ad-hoc probes).
class NetObserver {
 public:
  virtual ~NetObserver() = default;

  /// Called after each executed fluid step.
  virtual void on_step(const Network& net, TimePoint now) = 0;

  /// Called when grid ticks were skipped by an idle fast-forward: the steps
  /// at `from + k*dt` for k = 1 .. (to-from)/dt did not execute, and the
  /// network state over (from, to] was the idle state (no flows, zero
  /// rates, drained queues).  Fired before the first post-gap on_step(),
  /// and by Network::flush_observers() for a trailing gap at run end.
  virtual void on_idle_gap(const Network& net, TimePoint from, TimePoint to) {
    (void)net;
    (void)from;
    (void)to;
  }

  /// True when the observer's output is identical whether idle stretches
  /// are stepped through or reported via on_idle_gap().
  virtual bool quiescence_compatible() const { return false; }
};

struct NetworkConfig {
  /// Fraction of raw link capacity usable as application goodput (headers,
  /// RDMA overheads, PFC pauses).  The paper's 50 Gbps NICs delivered
  /// ~42 Gbps of aggregate goodput, i.e. factor ~0.85.
  double goodput_factor = 0.85;
  /// Fluid integration step.
  Duration step = Duration::micros(20);
};

class Network : public Stepper {
 public:
  Network(Topology topology, std::unique_ptr<BandwidthPolicy> policy,
          NetworkConfig config = {});

  /// Registers the network's fluid stepper with the simulator.  Must be
  /// called exactly once before the run.
  void attach(Simulator& sim);

  const Topology& topology() const { return topo_; }
  const NetworkConfig& config() const { return config_; }
  BandwidthPolicy& policy() { return *policy_; }
  const BandwidthPolicy& policy() const { return *policy_; }
  Simulator& sim() { return *sim_; }

  /// Next id start_flow() will hand out; part of the checkpointed state so
  /// a resumed run keeps allocating the same ids.
  std::int64_t next_flow_id() const { return next_flow_id_; }

  /// Checkpoint capture (src/ckpt): link health, the active/parked flow
  /// sets with byte progress and routes, and the id allocator, as
  /// deterministic bytes (ascending ids/links).  The policy's own state is
  /// captured separately via BandwidthPolicy::serialize_state.
  std::string serialize_state() const;

  /// Swaps the bandwidth policy mid-run (what-if branching: continue the
  /// same flows under a different transport).  Every active flow is
  /// re-introduced to the new policy via on_flow_started in active-id order
  /// — the same fresh-start semantics a parked flow gets on unpark — so the
  /// new transport begins from its own initial rates while byte progress is
  /// preserved.  Parked flows need nothing: they re-enter through
  /// on_flow_started when they unpark anyway.
  void replace_policy(std::unique_ptr<BandwidthPolicy> policy);

  /// Capacity available to goodput on `link`: nominal capacity scaled by the
  /// goodput factor and the link's runtime capacity factor.
  Rate effective_capacity(LinkId link) const {
    assert(link.valid() &&
           static_cast<std::size_t>(link.value) < eff_capacity_.size());
    return eff_capacity_[link.value];
  }

  /// The route's limiting link: minimum *nominal* capacity, earliest on the
  /// route when tied (strict `<` keeps the first minimum — the documented,
  /// deterministic tie-break).  Nominal (not runtime-degraded) capacity
  /// keeps the attribution stable for a flow's whole lifetime, so trace
  /// analytics can charge a flow's start and finish to the same link even
  /// across a mid-flight brownout.  Invalid for an empty route.
  LinkId route_bottleneck(const Route& route) const {
    LinkId best;
    Rate best_cap;
    for (const LinkId lid : route.links) {
      const Rate cap = nominal_capacity_[static_cast<std::size_t>(lid.value)];
      if (!best.valid() || cap < best_cap) {
        best = lid;
        best_cap = cap;
      }
    }
    return best;
  }

  /// ALL links tied at the route's minimum nominal capacity, in route order:
  /// the full contended set on an oversubscribed fabric, where a flow's
  /// slowdown can come from any of several equally-thin hops.  Writes up to
  /// `max` ids into `out` and returns the number written; out[0] ==
  /// route_bottleneck(route) whenever the route is non-empty.
  int route_contended_links(const Route& route, LinkId* out, int max) const {
    Rate min_cap;
    bool seen = false;
    for (const LinkId lid : route.links) {
      const Rate cap = nominal_capacity_[static_cast<std::size_t>(lid.value)];
      if (!seen || cap < min_cap) {
        min_cap = cap;
        seen = true;
      }
    }
    if (!seen) return 0;
    int n = 0;
    for (const LinkId lid : route.links) {
      if (n >= max) break;
      if (nominal_capacity_[static_cast<std::size_t>(lid.value)] == min_cap) {
        out[n++] = lid;
      }
    }
    return n;
  }

  // --- Runtime link state (fault injection) --------------------------------

  /// Sets `link`'s capacity factor: 1 restores nominal capacity, values in
  /// (0, 1) model a brownout, 0 takes the link down.  Taking a link down
  /// reroutes or parks the flows crossing it; bringing one up requeues any
  /// parked flow whose route (or a reroute) is whole again.  The policy is
  /// notified via on_link_capacity_changed after flows are reshuffled.
  void set_link_capacity_factor(LinkId link, double factor);

  double link_capacity_factor(LinkId link) const {
    assert(link.valid() &&
           static_cast<std::size_t>(link.value) < capacity_factor_.size());
    return capacity_factor_[link.value];
  }
  bool link_is_up(LinkId link) const {
    return link_capacity_factor(link) > 0.0;
  }

  /// True if any link of `route` is down.
  bool route_severed(const Route& route) const;

  /// Installs the reroute provider consulted when a flow's route is severed
  /// (at start, on link failure, and again on restoration).  It returns the
  /// replacement route, or an empty route when none exists.  Typically backed
  /// by a Router with a link-state filter; see faults/injector.
  using RerouteFn = std::function<Route(const Flow&)>;
  void set_reroute_provider(RerouteFn fn) { reroute_ = std::move(fn); }

  /// Flows currently parked (severed route, waiting for repair), sorted
  /// ascending.  Invalidated by the next park/unpark/abort.
  std::span<const FlowId> parked_flows() const { return parked_ids_; }
  bool is_parked(FlowId id) const;

  /// Starts a flow; `on_complete` fires (at the interpolated completion
  /// instant) once all bytes are delivered.  Zero-byte flows complete at the
  /// next step boundary.
  FlowId start_flow(FlowSpec spec, FlowCompletionFn on_complete = {});

  /// Drops a flow without firing its completion callback.
  void abort_flow(FlowId id);

  /// True while the flow is alive (running or parked); false once finished
  /// or aborted.
  bool is_active(FlowId id) const { return index_.contains(id.value); }
  const Flow& flow(FlowId id) const;
  Flow& flow(FlowId id);
  std::size_t active_flow_count() const { return active_ids_.size(); }

  /// Sorted view of active flow ids (ascending, deterministic).  The span is
  /// invalidated by the next flow start/abort/finish; it never allocates.
  std::span<const FlowId> active_flows() const { return active_ids_; }

  /// Slab slots of the active flows, parallel to active_flows().  Iterating
  /// ids and slots together lets policies reach flow state without hashing.
  std::span<const std::uint32_t> active_slots() const { return active_slots_; }

  /// Stable slab slot of an active flow (constant for the flow's lifetime;
  /// freed slots are recycled for later flows).
  std::uint32_t slot_of(FlowId id) const;

  /// Direct slab access by slot (from active_slots(), flow_slots_on_link()
  /// or slot_of()).  Slots of inactive flows are invalid to dereference.
  Flow& flow_at(std::uint32_t slot) { return slab_[slot].flow; }
  const Flow& flow_at(std::uint32_t slot) const { return slab_[slot].flow; }

  /// Upper bound on any active slot + 1; sizes per-slot policy side tables.
  std::size_t slab_size() const { return slab_.size(); }

  // --- Hot per-flow state: structure-of-arrays slabs -----------------------
  //
  // Parallel to the flow slab, indexed by slot.  Policies write rates here
  // every step; the Network integrates byte progress from the same arrays.

  /// Current sending rate of every slab slot, in bits/s (slots of inactive
  /// flows hold stale values; index only with active slots).
  std::span<const double> rates_bps() const { return rate_bps_; }
  /// Mutable view for bandwidth policies ("scatter" side of a rate kernel).
  std::span<double> mutable_rates_bps() { return rate_bps_; }
  /// Bytes left to deliver per slot (fractional during fluid integration).
  std::span<const double> remaining_bytes() const { return remaining_b_; }
  /// Total size in bytes per slot.
  std::span<const double> size_bytes() const { return size_b_; }

  Rate rate_at(std::uint32_t slot) const { return Rate::bps(rate_bps_[slot]); }
  void set_rate(std::uint32_t slot, Rate r) {
    rate_bps_[slot] = r.bits_per_sec();
  }
  /// Current sending rate of an active flow (id-keyed; hashes — diagnostics
  /// and tests, not the per-step path).
  Rate rate(FlowId id) const { return rate_at(slot_of(id)); }
  Bytes remaining_of(FlowId id) const {
    return Bytes::of(remaining_b_[slot_of(id)]);
  }
  Bytes delivered_of(FlowId id) const {
    const std::uint32_t s = slot_of(id);
    return Bytes::of(size_b_[s] - remaining_b_[s]);
  }
  /// Progress through the transfer in [0, 1].
  double progress_at(std::uint32_t slot) const {
    const double size = size_b_[slot];
    return size == 0.0 ? 1.0 : (size - remaining_b_[slot]) / size;
  }
  double progress_of(FlowId id) const { return progress_at(slot_of(id)); }

  /// Advances byte progress one tick for every active flow with the
  /// completion scan elided — only callable when the caller has proven no
  /// flow can finish this tick (Network::step_burst's completion-free
  /// window; see BandwidthPolicy::rate_bound_bps).  Same arithmetic, in the
  /// same order, as the checked loop in step(), so trajectories stay
  /// bit-identical.
  void integrate_progress_unchecked(double dt_s) {
    const double* const rates = rate_bps_.data();
    double* const rem = remaining_b_.data();
    for (const std::uint32_t slot : active_slots_) {
      rem[slot] -= rates[slot] * dt_s / 8.0;
    }
  }

  /// Advances byte progress `ticks` ticks for every active flow at its
  /// current rate: each flow's remaining bytes become exactly what `ticks`
  /// calls of integrate_progress_unchecked(dt_s) would leave, bit for bit,
  /// computed per binade in closed form (net/repeat_subtract.h).  For a
  /// frozen burst, where no rate changes; same precondition as the
  /// unchecked integrator.
  void advance_frozen(double dt_s, std::uint64_t ticks);

  /// Work of advance_frozen: flow-ticks it advanced, and the floating-point
  /// operations it executed for them (integer segments plus single
  /// subtractions).  Deterministic counters, kept out of serialize_state().
  struct FrozenWork {
    std::uint64_t flow_ticks = 0;
    std::uint64_t ops = 0;
  };
  const FrozenWork& frozen_work() const { return frozen_work_; }

  /// The flow's route as a flat span of link ids (CSR slice into one shared
  /// array) — the gather side of per-flow kernels walks this instead of
  /// dereferencing Route's heap vector per flow.  Refreshed on start,
  /// reroute and unpark.
  std::span<const std::int32_t> route_links(std::uint32_t slot) const {
    return {route_flat_.data() + route_off_[slot], route_len_[slot]};
  }

  /// Ids of active flows whose route traverses `link`.
  const std::vector<FlowId>& flows_on_link(LinkId link) const {
    assert(link.valid() &&
           static_cast<std::size_t>(link.value) < link_flows_.size());
    return link_flows_[link.value];
  }

  /// Slab slots of active flows on `link`, parallel to flows_on_link().
  std::span<const std::uint32_t> flow_slots_on_link(LinkId link) const {
    assert(link.valid() &&
           static_cast<std::size_t>(link.value) < link_slots_.size());
    return link_slots_[link.value];
  }

  /// Links currently carrying at least one active flow, sorted ascending.
  /// Lets per-link policy passes skip the (typically much larger) set of
  /// idle links.  Invalidated by the next flow start/abort/finish.
  std::span<const LinkId> links_in_use() const { return used_links_; }

  /// Sum of current flow rates crossing `link`.
  Rate link_throughput(LinkId link) const;

  /// Utilization of `link` relative to effective capacity, in [0, ~1+].
  double link_utilization(LinkId link) const;

  /// Registers a step observer (non-owning; must outlive the run).  The
  /// first registration aligns the observer clock onto the step grid so
  /// idle-gap reporting stays exact for mid-run attachment.
  void add_observer(NetObserver& obs);

  /// Reports the trailing idle gap — grid ticks between the last executed
  /// step and the simulator clock — to every observer.  Call after the run
  /// (the scenario/experiment harnesses do); idempotent.
  void flush_observers();

  /// Binds the observability bus this network (and the policy and jobs
  /// driving it) publishes TraceEvents to; nullptr detaches.  Producers
  /// skip all event construction while no bus is bound, so un-instrumented
  /// runs pay nothing.
  void set_trace_bus(TraceBus* bus);
  TraceBus* trace_bus() const { return bus_; }

  // Stepper:
  void step(TimePoint now, Duration dt) override;
  /// Hot-loop burst: consecutive grid ticks run back-to-back with the
  /// kernel's per-tick virtual dispatch and event-horizon peeks hoisted
  /// out.  Hands control back after any tick with externally visible
  /// effects (flow completions — whose callbacks may schedule events or
  /// stop the run — or attached observers) and on an idle transition, per
  /// the Stepper contract.
  TimePoint step_burst(TimePoint first, Duration dt, TimePoint horizon,
                       TimePoint& now_ref) override;
  /// The fluid step is an identity when no flows are active, the policy has
  /// no decaying state (queues drained) and every attached observer is
  /// quiescence-compatible; the kernel then jumps straight between discrete
  /// events and observers learn about the gap via on_idle_gap().
  bool idle() const override {
    return active_ids_.empty() && blocking_observers_ == 0 &&
           policy_->quiescent();
  }

 private:
  struct Slot {
    Flow flow;
    FlowCompletionFn on_complete;
    bool parked = false;
  };
  struct Pending {
    FlowId id;
    TimePoint finish;
  };

  /// Number of upcoming grid ticks during which provably no active flow can
  /// finish: each flow's remaining bytes divided by the policy's hard rate
  /// bound, minus generous floating-point slack.  A flow bounded at zero
  /// rate cannot finish and does not limit it.  Zero when any flow is at
  /// (or past) completion, when there are no active flows, or when the
  /// policy declines to bound its rates (rate_bound_bps == inf).
  std::uint64_t completion_free_ticks(double dt_s) const;

  /// Removes `id` from the slab, the active caches and the link lists (or
  /// the parked list, for parked flows).  Returns the extracted slot
  /// contents (flow + completion callback).
  Slot extract_flow(FlowId id, std::uint32_t slot);

  /// Inserts an already-slabbed flow into the active caches and link lists
  /// and notifies the policy.  `id` may be smaller than existing active ids
  /// (unparking), so insertion is by lower_bound.
  void activate_flow(FlowId id, std::uint32_t slot);

  /// Removes an active flow from the active caches and link lists, zeroes
  /// its rate and moves it to the parked list; the policy sees a finish.
  void park_flow(FlowId id, std::uint32_t slot);

  /// Re-admits a parked flow whose route healed (possibly after a reroute);
  /// returns false when still severed and no reroute exists.
  bool try_unpark_flow(FlowId id, std::uint32_t slot);

  Topology topo_;
  std::unique_ptr<BandwidthPolicy> policy_;
  NetworkConfig config_;
  Simulator* sim_ = nullptr;
  std::vector<Rate> nominal_capacity_;  // per link, capacity * goodput_factor
  std::vector<Rate> eff_capacity_;      // nominal * capacity_factor
  std::vector<double> capacity_factor_;  // per link, runtime health in [0, 1]
  RerouteFn reroute_;
  std::vector<FlowId> parked_ids_;  // sorted ascending

  /// Installs `flow`'s route into the CSR slabs (appends to the flat array;
  /// compacts when garbage from departed flows dominates).
  void cache_route(std::uint32_t slot, const Route& route);

  std::vector<Slot> slab_;
  // Hot per-flow state, parallel to slab_ (see rates_bps() et al.).
  std::vector<double> rate_bps_;
  std::vector<double> remaining_b_;
  std::vector<double> size_b_;
  // Route CSR: route_flat_[route_off_[s] .. +route_len_[s]) are the link ids
  // of slot s's route.  Appended on install; compacted when stale slices
  // outnumber live ones.
  std::vector<std::int32_t> route_flat_;
  std::vector<std::uint32_t> route_off_;
  std::vector<std::uint32_t> route_len_;
  std::size_t route_live_links_ = 0;  // links referenced by live slots
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::int64_t, std::uint32_t> index_;  // id -> slot
  std::vector<FlowId> active_ids_;            // sorted ascending
  std::vector<std::uint32_t> active_slots_;   // parallel to active_ids_
  std::vector<std::vector<FlowId>> link_flows_;          // indexed by LinkId
  std::vector<std::vector<std::uint32_t>> link_slots_;   // parallel lists
  std::vector<LinkId> used_links_;  // links with >=1 active flow, sorted
  std::vector<Pending> done_;  // scratch reused across steps
  FrozenWork frozen_work_;

  std::vector<NetObserver*> observers_;
  int blocking_observers_ = 0;  // observers that are not quiescence-compatible
  TimePoint last_step_;  // last grid tick observers were told about
  TimePoint anchor_;     // the step grid's origin (set at attach)

  TraceBus* bus_ = nullptr;
  Counter* c_flows_started_ = nullptr;
  Counter* c_flows_finished_ = nullptr;
  Counter* c_flows_aborted_ = nullptr;
  Counter* c_flows_parked_ = nullptr;
  Counter* c_reroutes_ = nullptr;

  std::int64_t next_flow_id_ = 1;
};

}  // namespace ccml
