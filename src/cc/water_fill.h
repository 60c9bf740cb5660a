// Weighted max-min fair allocation by progressive filling ("water-filling"),
// and IdealPolicy, the base of the ideal policies built on it:
// MaxMinFairPolicy (all weights 1), WfqPolicy (per-flow weights) and
// PriorityPolicy (per-class residual filling).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.h"
#include "net/policy.h"
#include "net/types.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

/// Computes the weighted max-min fair rates for the flows in `slots` (network
/// slab slots, as handed out by Network::active_slots()) given per-link
/// residual capacities.  Returns rates parallel to `slots`.  `residual` is
/// indexed by LinkId value and is *updated in place* (capacity consumed by
/// the returned allocation), which lets PriorityPolicy fill classes
/// successively.
///
/// `weights` is parallel to `slots`; pass an empty span for unit weights.
/// Flows whose weight is <= 0 receive zero rate.
///
/// The fill rounds walk the network's flat route array (no per-flow Route
/// indirection) and touch no hash table.
std::vector<Rate> water_fill(const Network& net,
                             std::span<const std::uint32_t> slots,
                             std::vector<Rate>& residual,
                             std::span<const double> weights = {});

/// Residual vector initialised to every link's effective capacity.
std::vector<Rate> full_residual(const Network& net);

/// An ideal policy's allocation is a pure function of the ordered active
/// slots, their routes, the links' effective capacities and each flow's
/// (immutable) FlowSpec weight and priority.  Each of those changes only
/// through a flow start/unpark, a finish/park/abort or a capacity change,
/// and the network notifies the policy of every one.  So the allocation is
/// recomputed only after such a notification (`dirty_`); in between, the
/// rates in the network's slab stay exactly what the last allocation wrote.
///
/// That also makes the current rate an exact bound for fused stepping: once
/// the allocation is fresh, rate_bound_bps returns each slot's rate and
/// Network::step_burst can fuse the ticks up to the next completion.  While
/// dirty it returns infinity, so the next tick runs checked and recomputes.
/// A flow held at zero rate (a starved strict-priority class) bounds at
/// zero, which declines fusion for as long as it waits.
///
/// Allocations are counted on the trace bus as `ideal.allocations`.
class IdealPolicy : public BandwidthPolicy {
 public:
  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  // Nothing evolves between allocations: no queues, nothing decays.
  bool quiescent() const override { return true; }

 protected:
  /// Writes the allocation for the network's current active flows into its
  /// rate slab.
  virtual void allocate(Network& net) = 0;

  /// Water-fills `slots` over `residual` (consumed in place) and writes the
  /// resulting rates; `weighted` uses each flow's FlowSpec::weight, otherwise
  /// every weight is 1.
  static void fill(Network& net, std::span<const std::uint32_t> slots,
                   std::vector<Rate>& residual, bool weighted);

 private:
  bool dirty_ = true;
  TraceBus* bus_cache_ = nullptr;
  Counter* c_allocations_ = nullptr;
};

}  // namespace ccml
