// Shared slab scaffolding for the per-link queue pass every transport runs.
//
// DCQCN and TIMELY grew structurally identical hot loops: stamp the links
// that can queue this tick, sum per-link arrival from the network's rate
// slab, integrate each queue through a transport-specific fluid update, then
// drain stale backlog on links the hot set no longer covers.  This header is
// that loop, written once — the transport supplies its LinkState record and
// an integrate functor, and LinkQueueSlab owns the wet-list bookkeeping, the
// step stamps, and the queues-clear quiescence flag.
//
// Bit-identity contract: the scaffold preserves the exact iteration order
// and floating-point arithmetic of the pre-subsystem per-transport loops —
// hot links in range order (stamped before integration), then leftover wet
// links in last-pass order with their true arrival sums (zero once their
// flows departed).  The scalar oracles in tests/cc_kernel_parity_test.cpp
// integrate every link of the topology on every tick instead and must agree
// bit for bit; the golden hashes in tests/cc_transport_zoo_test.cpp pin the
// bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.h"

namespace ccml {

/// Minimum effective capacity along `flow`'s route — the line rate every
/// transport caches per flow at start (and re-derives on capacity changes).
inline Rate route_line_rate(const Network& net, const Flow& flow) {
  Rate line = Rate::gbps(1e9);  // effectively infinite until min'ed below
  for (const LinkId lid : flow.spec.route.links) {
    line = std::min(line, net.effective_capacity(lid));
  }
  return line;
}

/// The (flow id, slot) pairs of `slots` in ascending-id order — the
/// serialization contract of BandwidthPolicy::serialize_state (identical
/// live state must yield identical bytes; the map's order is not stable).
inline std::vector<std::pair<std::int64_t, std::uint32_t>> sorted_flow_slots(
    const std::unordered_map<FlowId, std::uint32_t>& slots) {
  std::vector<std::pair<std::int64_t, std::uint32_t>> flows;
  flows.reserve(slots.size());
  for (const auto& [id, slot] : slots) flows.emplace_back(id.value, slot);
  std::sort(flows.begin(), flows.end());
  return flows;
}

/// The per-link queue slab: storage plus the stamped two-pass step loop.
/// `LinkState` must carry a `std::uint64_t stamp` member; everything else
/// (queue representation, cached capacity, marking state) is the
/// transport's business, touched only through its integrate functor.
template <typename LinkState>
class LinkQueueSlab {
 public:
  /// Grows the slab to the topology's link count (values preserved).
  void ensure_links(std::size_t n) {
    if (links_.size() < n) links_.resize(n);
  }
  std::size_t size() const { return links_.size(); }

  LinkState& operator[](std::size_t l) { return links_[l]; }
  const LinkState& operator[](std::size_t l) const { return links_[l]; }
  const std::vector<LinkState>& links() const { return links_; }

  /// True when every queue drained on the last step — the transports'
  /// quiescence signal (nothing evolves between steps while no flow is
  /// active and no backlog remains).
  bool queues_clear() const { return queues_clear_; }

  /// One queue pass.  `hot` is the transport's set of links that can queue
  /// under the current flow set (DCQCN's congestible cp_links, TIMELY's
  /// links-in-use); elements may be LinkId or raw indices.  `integrate` is
  /// called as integrate(link_index, arrival_bps) and returns true when the
  /// link holds backlog after the update (it then joins the wet list and
  /// clears the quiescence flag).  Wet links missed by the hot set drain
  /// against their true arrival sum — zero once their flows departed.
  template <typename HotRange, typename Integrate>
  void step(const Network& net, const HotRange& hot, Integrate&& integrate) {
    ++step_stamp_;
    bool clear = true;
    scratch_wet_.clear();
    const std::span<const double> rates = net.rates_bps();
    const auto arrival = [&](std::size_t l) __attribute__((always_inline)) {
      double arrival_bps = 0.0;
      for (const std::uint32_t slot :
           net.flow_slots_on_link(LinkId{static_cast<std::int32_t>(l)})) {
        arrival_bps += rates[slot];
      }
      return arrival_bps;
    };
    for (const auto h : hot) {
      const std::size_t l = link_index(h);
      links_[l].stamp = step_stamp_;
      if (integrate(l, arrival(l))) {
        clear = false;
        scratch_wet_.push_back(static_cast<std::uint32_t>(l));
      }
    }
    for (const std::uint32_t l : wet_links_) {
      if (links_[l].stamp != step_stamp_) {
        if (integrate(static_cast<std::size_t>(l), arrival(l))) {
          clear = false;
          scratch_wet_.push_back(l);
        }
      }
    }
    wet_links_.swap(scratch_wet_);
    queues_clear_ = clear;
  }

 private:
  static std::size_t link_index(LinkId id) {
    return static_cast<std::size_t>(id.value);
  }
  static std::size_t link_index(std::int32_t l) {
    return static_cast<std::size_t>(l);
  }
  static std::size_t link_index(std::uint32_t l) { return l; }

  std::vector<LinkState> links_;
  bool queues_clear_ = true;   // refreshed by each step
  std::uint64_t step_stamp_ = 0;
  std::vector<std::uint32_t> wet_links_;    // links with backlog after the
  std::vector<std::uint32_t> scratch_wet_;  // previous pass (+ scratch)
};

}  // namespace ccml
