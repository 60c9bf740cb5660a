// Interface between the Network and a bandwidth-allocation / congestion-
// control scheme.  Implementations live in src/cc.
#pragma once

#include <string>

#include "net/flow.h"
#include "net/types.h"
#include "util/time.h"

namespace ccml {

class Network;

/// Decides, every fluid step, what rate each active flow sends at.
///
/// Ideal policies (max-min fair, WFQ, strict priority) compute a global
/// allocation whenever a flow starts or ends or a link's capacity changes,
/// and hold it in between (src/cc/water_fill.h, IdealPolicy).  Distributed
/// schemes (DCQCN) keep per-flow rate machines and per-link queue/marking
/// state and integrate them over the step.
class BandwidthPolicy {
 public:
  virtual ~BandwidthPolicy() = default;

  virtual const char* name() const = 0;

  /// Called when `flow` is admitted, before its first step.
  virtual void on_flow_started(Network& net, Flow& flow) {
    (void)net;
    (void)flow;
  }

  /// Called after `flow` finished or was aborted.
  virtual void on_flow_finished(Network& net, const Flow& flow) {
    (void)net;
    (void)flow;
  }

  /// Called after `link`'s effective capacity changed at runtime (failure,
  /// brownout, restoration).  Policies that cache per-flow line rates or
  /// per-link state derived from capacity must refresh it here; stateless
  /// policies that re-read capacities every step need not override.
  virtual void on_link_capacity_changed(Network& net, LinkId link) {
    (void)net;
    (void)link;
  }

  /// Writes the sending rate of every active flow into the network's rate
  /// slab (Network::set_rate / mutable_rates_bps).
  virtual void update_rates(Network& net, TimePoint now, Duration dt) = 0;

  /// Runs `ticks` consecutive fluid steps `first, first + dt, ...` as one
  /// fused call: each tick computes rates exactly as update_rates would,
  /// then advances byte progress (Network::integrate_progress_unchecked).
  /// The caller guarantees that during these ticks no flow can complete,
  /// start, park, or reroute, no capacity changes, and no observers are
  /// attached — it is purely the hot loop — so implementations may hoist
  /// per-tick setup, as long as every tick's arithmetic stays bit-identical
  /// to per-tick stepping.  The default simply loops.
  virtual void update_rates_burst(Network& net, TimePoint first, Duration dt,
                                  std::uint64_t ticks);

  /// Hard upper bound, in bits/s, on the rate this policy will ever assign
  /// `slot` given its current state — typically the route's line rate plus
  /// any floor the scheme enforces.  Network::step_burst divides remaining
  /// bytes by it to prove a flow cannot finish for the next k ticks and
  /// fuse those ticks.  The default, infinity, declines the proof, so fused
  /// stepping never engages for schemes that don't opt in.
  virtual double rate_bound_bps(const Network& net, std::uint32_t slot) const;

  /// True when the policy carries no state that evolves across steps while
  /// no flows are active (e.g. all queues drained).  Together with an empty
  /// active-flow set this lets the kernel skip fluid steps entirely between
  /// communication phases — an exact fast-forward, not an approximation.
  /// Conservative default: never claim quiescence.
  virtual bool quiescent() const { return false; }

  /// Bytes queued at a link's egress (only meaningful for queue-building
  /// schemes such as DCQCN).
  virtual Bytes link_queue(LinkId link) const {
    (void)link;
    return Bytes::zero();
  }

  /// Full mutable policy state (per-flow rate machines, per-link queues,
  /// RNG streams) as an opaque byte string for the checkpoint layer
  /// (src/ckpt).  The only contract is determinism: the bytes must be a
  /// pure function of the live state, because restore verifies a replayed
  /// run by byte-comparing re-captured sections against the snapshot.
  /// Stateless policies keep the empty default.
  virtual std::string serialize_state() const { return {}; }
};

}  // namespace ccml
