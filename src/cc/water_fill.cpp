#include "cc/water_fill.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/trace_bus.h"

namespace ccml {

void IdealPolicy::on_flow_started(Network& /*net*/, Flow& /*flow*/) {
  dirty_ = true;
}

void IdealPolicy::on_flow_finished(Network& /*net*/, const Flow& /*flow*/) {
  dirty_ = true;
}

void IdealPolicy::on_link_capacity_changed(Network& /*net*/, LinkId /*link*/) {
  dirty_ = true;
}

void IdealPolicy::update_rates(Network& net, TimePoint /*now*/,
                               Duration /*dt*/) {
  if (!dirty_) return;
  allocate(net);
  dirty_ = false;
  TraceBus* bus = net.trace_bus();
  if (bus != bus_cache_) {
    bus_cache_ = bus;
    c_allocations_ = bus ? &bus->counter("ideal.allocations") : nullptr;
  }
  if (c_allocations_ != nullptr) c_allocations_->add();
}

void IdealPolicy::update_rates_burst(Network& net, TimePoint first,
                                     Duration dt, std::uint64_t ticks) {
  if (ticks == 0) return;
  // The first tick allocates if a notification left the allocation stale;
  // every later tick's update_rates is a no-op, so the rates are constant.
  update_rates(net, first, dt);
  net.advance_frozen(dt.to_seconds(), ticks);
}

double IdealPolicy::rate_bound_bps(const Network& net,
                                   std::uint32_t slot) const {
  return dirty_ ? std::numeric_limits<double>::infinity()
                : net.rates_bps()[slot];
}

void IdealPolicy::fill(Network& net, std::span<const std::uint32_t> slots,
                       std::vector<Rate>& residual, bool weighted) {
  std::vector<double> weights;
  if (weighted) {
    weights.reserve(slots.size());
    for (const std::uint32_t slot : slots) {
      weights.push_back(net.flow_at(slot).spec.weight);
    }
  }
  const auto rates = water_fill(net, slots, residual, weights);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    net.set_rate(slots[i], rates[i]);
  }
}

std::vector<Rate> full_residual(const Network& net) {
  std::vector<Rate> residual(net.topology().link_count());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = net.effective_capacity(LinkId{static_cast<std::int32_t>(i)});
  }
  return residual;
}

std::vector<Rate> water_fill(const Network& net,
                             std::span<const std::uint32_t> slots,
                             std::vector<Rate>& residual,
                             std::span<const double> weights) {
  assert(weights.empty() || weights.size() == slots.size());
  std::vector<Rate> rates(slots.size(), Rate::zero());

  // Gather each member's slot, output index and weight once up front so the
  // fill rounds below are pure array walks.
  struct Member {
    std::uint32_t idx;   // position in `slots` / `rates`
    std::uint32_t slot;  // network slab slot (route lookup)
    double weight;
  };
  std::vector<Member> unfrozen;
  unfrozen.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    if (w > 0.0) {
      unfrozen.push_back(
          {static_cast<std::uint32_t>(i), slots[i], w});
    }
  }

  // Per-link weight of unfrozen flows crossing it.
  std::vector<double> link_weight(residual.size(), 0.0);
  auto recompute_link_weights = [&] {
    std::fill(link_weight.begin(), link_weight.end(), 0.0);
    for (const Member& m : unfrozen) {
      for (const std::int32_t l : net.route_links(m.slot)) {
        link_weight[l] += m.weight;
      }
    }
  };

  while (!unfrozen.empty()) {
    recompute_link_weights();
    // Bottleneck link: minimum residual capacity per unit weight.
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      if (link_weight[l] > 0.0) {
        theta = std::min(theta, residual[l].bits_per_sec() / link_weight[l]);
      }
    }
    if (!std::isfinite(theta)) break;  // no unfrozen flow crosses any link
    theta = std::max(theta, 0.0);

    // Freeze every flow crossing a bottleneck link at weight * theta.  The
    // freeze set is decided against the residual as of the start of the
    // round; capacity is only subtracted afterwards (subtracting mid-pass
    // would make later flows in the same round look bottlenecked too).
    std::vector<Member> frozen;
    std::vector<Member> still;
    still.reserve(unfrozen.size());
    constexpr double kSlack = 1.0 + 1e-12;
    for (const Member& m : unfrozen) {
      bool bottlenecked = false;
      for (const std::int32_t l : net.route_links(m.slot)) {
        const double share = residual[l].bits_per_sec() / link_weight[l];
        if (share <= theta * kSlack) {
          bottlenecked = true;
          break;
        }
      }
      (bottlenecked ? frozen : still).push_back(m);
    }
    for (const Member& m : frozen) {
      const Rate r = Rate::bps(m.weight * theta);
      rates[m.idx] = r;
      for (const std::int32_t l : net.route_links(m.slot)) {
        residual[l] -= r;
        if (residual[l] < Rate::zero()) {
          residual[l] = Rate::zero();
        }
      }
    }
    assert(still.size() < unfrozen.size() && "progress each round");
    unfrozen = std::move(still);
  }
  return rates;
}

}  // namespace ccml
