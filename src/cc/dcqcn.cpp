#include "cc/dcqcn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "ckpt/snapshot.h"
#include "net/network.h"
#include "obs/trace_bus.h"

namespace ccml {

namespace {

// Kept out of line so the per-flow rate loop stays tight when tracing is
// off — inlining the event construction into update_rates costs measurable
// time even when the branch never fires.
[[gnu::noinline]] void emit_rate_event(TraceBus& bus, Counter& counter,
                                       TraceEventKind kind, TimePoint now,
                                       const Flow& flow, double rate_bps,
                                       double value2) {
  TraceEvent ev;
  ev.time = now;
  ev.kind = kind;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  ev.value = rate_bps;
  ev.value2 = value2;
  bus.emit(ev);
  counter.add();
}

}  // namespace

static_assert(DcqcnPolicy::kByteCounter.count() > 0.0);

DcqcnPolicy::DcqcnPolicy(DcqcnConfig config)
    : config_(config),
      rng_(config.seed),
      red_(config.kmin, config.kmax, config.pmax) {
  assert(config_.kmax > config_.kmin);
  assert(config_.pmax > 0.0 && config_.pmax <= 1.0);
  assert(config_.timer.is_positive());
}

void DcqcnPolicy::resize_soa(std::size_t n) {
  rc_bps_.resize(n);
  rt_bps_.resize(n);
  line_bps_.resize(n);
  alpha_col_.resize(n);
  rai_bps_.resize(n);
  bsi_bytes_.resize(n);
  emarks_.resize(n);
  timer_ns_.resize(n);
  tsi_ns_.resize(n);
  cnp_ns_.resize(n);
  aclk_ns_.resize(n);
  clean_ns_.resize(n);
  timer_rounds_col_.resize(n);
  byte_rounds_col_.resize(n);
  lazy_since_.resize(n, kCurrent);
}

void DcqcnPolicy::refresh_caps(const Network& net) {
  const std::size_t n = net.topology().link_count();
  links_.ensure_links(n);
  for (std::size_t l = 0; l < n; ++l) {
    links_[l].cap_bps =
        net.effective_capacity(LinkId{static_cast<std::int32_t>(l)})
            .bits_per_sec();
  }
}

void DcqcnPolicy::rebuild_cp_links(const Network& net) {
  // Exact recompute (no incremental float drift): per link, the sum of the
  // rate bounds of the active flows crossing it.  The bound, not the bare
  // line rate: a decrease floors R_C at kRateFloor, above the line rate of a
  // route browned out below that, and such a flow can queue a link whose
  // line-rate sum fits its capacity.  Flow-set and capacity changes are
  // rare, so O(flows x route length) here buys a CP pass that touches only
  // links that can actually congest.
  scratch_bound_.assign(links_.size(), 0.0);
  for (const std::uint32_t slot : net.active_slots()) {
    const double bound = rate_bound_bps(net, slot);
    for (const std::int32_t l : net.route_links(slot)) {
      scratch_bound_[l] += bound;
    }
  }
  cp_links_.clear();
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (scratch_bound_[l] > links_[l].cap_bps) {
      cp_links_.push_back(static_cast<std::int32_t>(l));
    }
  }
}

void DcqcnPolicy::on_flow_started(Network& net, Flow& flow) {
  if (links_.size() < net.topology().link_count()) {
    refresh_caps(net);
  }
  const Rate line = route_line_rate(net, flow);
  const Duration timer = flow.spec.cc_timer.is_positive() ? flow.spec.cc_timer
                                                          : config_.timer;
  const Rate rai = flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : kRai;
  const std::uint32_t slot = net.slot_of(flow.id);
  if (rc_bps_.size() <= slot) resize_soa(net.slab_size());
  const double line_bps = line.bits_per_sec();
  line_bps_[slot] = line_bps;
  // RDMA senders start at line rate and back off on marks.
  rc_bps_[slot] = line_bps;
  rt_bps_[slot] = line_bps;
  alpha_col_[slot] = 1.0;
  timer_ns_[slot] = timer.ns();
  rai_bps_[slot] = rai.bits_per_sec();
  tsi_ns_[slot] = 0;
  bsi_bytes_[slot] = 0.0;
  timer_rounds_col_[slot] = 0;
  byte_rounds_col_[slot] = 0;
  cnp_ns_[slot] = Duration::max().ns();
  aclk_ns_[slot] = 0;
  emarks_[slot] = 0.0;
  clean_ns_[slot] = 0;
  lazy_since_[slot] = kCurrent;
  slots_[flow.id] = slot;
  net.set_rate(slot, line);
  rebuild_cp_links(net);
  frozen_ = false;
}

void DcqcnPolicy::on_flow_finished(Network& net, const Flow& flow) {
  // The slot's state is left stale, owed ticks included (nothing reads a
  // finished or parked flow's machine); a reused slot is overwritten on
  // start.  A frozen network stays frozen: fewer flows congest no link.
  slots_.erase(flow.id);
  rebuild_cp_links(net);
}

void DcqcnPolicy::on_link_capacity_changed(Network& net, LinkId /*link*/) {
  // Line rates are cached per flow at start and per link for the CP pass; a
  // capacity change (brownout or restoration) anywhere invalidates both.
  // Faults are rare, so refreshing everything is fine.  Owed ticks ran at
  // the old line rate, so they are replayed before it changes.
  materialize_active(net);
  frozen_ = false;
  refresh_caps(net);
  for (const std::uint32_t slot : net.active_slots()) {
    const Flow& flow = net.flow_at(slot);
    const double line_bps = route_line_rate(net, flow).bits_per_sec();
    line_bps_[slot] = line_bps;
    rc_bps_[slot] = std::min(rc_bps_[slot], line_bps);
    rt_bps_[slot] = std::min(rt_bps_[slot], line_bps);
    net.set_rate(slot, Rate::bps(rc_bps_[slot]));
  }
  rebuild_cp_links(net);
}

// One increase event: hyper increase once both the timer and the byte
// counter finished fast recovery, additive increase once either did (scaled
// by comm-phase progress under adaptive_rai, the paper's §4
// R_AI * (1 + Data_sent / Data_comm_phase); each flow carries exactly one
// communication phase, so flow progress is the paper's ratio), and in every
// stage R_C glides halfway to R_T ("fast recovery" when R_T is unchanged).
void DcqcnPolicy::soa_increase(std::uint32_t slot, double progress) {
  const int f = kFastRecoveryRounds;
  if (timer_rounds_col_[slot] >= f && byte_rounds_col_[slot] >= f) {
    rt_bps_[slot] += kRhai.bits_per_sec();
  } else if (timer_rounds_col_[slot] >= f || byte_rounds_col_[slot] >= f) {
    double rai = rai_bps_[slot];
    if (config_.adaptive_rai) rai = rai * (1.0 + progress);
    rt_bps_[slot] += rai;
  }
  rc_bps_[slot] = (rt_bps_[slot] + rc_bps_[slot]) * 0.5;
  rc_bps_[slot] = std::min(rc_bps_[slot], line_bps_[slot]);
  rt_bps_[slot] = std::min(rt_bps_[slot], line_bps_[slot]);
}

// Once-per-call setup shared by update_rates and update_rates_burst: sizes
// the link table to the topology, re-resolves counter handles when the
// bound trace bus changed, and rebases the lazy ledger when dt changed.
// None of these can change inside a fused burst.  A bound bus needs the
// eager traced pass, which steps every flow: it thaws a frozen network and
// brings every owing flow current here, so the traced pass never meets a
// flow that owes ticks.
void DcqcnPolicy::sync_caches(Network& net, Duration dt) {
  if (links_.size() < net.topology().link_count()) {
    refresh_caps(net);
  }
  TraceBus* bus = net.trace_bus();
  if (bus != bus_cache_) {
    bus_cache_ = bus;
    c_cnp_ = bus ? &bus->counter("dcqcn.cnp") : nullptr;
    c_timer_fires_ = bus ? &bus->counter("dcqcn.timer_fires") : nullptr;
    frozen_ = false;
    if (bus != nullptr && owing_) {
      for (const std::uint32_t slot : net.active_slots()) {
        if (lazy_since_[slot] != kCurrent) materialize(slot);
        lazy_since_[slot] = kCurrent;
      }
      owing_ = false;
    }
  }
  if (dt.ns() != ledger_dt_ns_) [[unlikely]] {
    materialize_active(net);
    ledger_dt_ns_ = dt.ns();
    ledger_dt_s_ = dt.to_seconds();
  }
}

void DcqcnPolicy::update_rates(Network& net, TimePoint now, Duration dt) {
  sync_caches(net, dt);
  step_tick(net, now, dt);
}

void DcqcnPolicy::update_rates_burst(Network& net, TimePoint first, Duration dt,
                                     std::uint64_t ticks) {
  sync_caches(net, dt);
  const double dt_s = dt.to_seconds();
  TimePoint now = first;
  std::uint64_t k = 0;
  for (; k < ticks && !frozen_; ++k) {
    step_tick(net, now, dt);
    net.integrate_progress_unchecked(dt_s);
    now = now + dt;
  }
  if (k < ticks) {
    // Frozen: every flow owes the rest of the burst; only bytes move.
    owe_frozen(net, ticks - k);
    for (; k < ticks; ++k) net.integrate_progress_unchecked(dt_s);
  }
}

void DcqcnPolicy::owe_frozen(const Network& net, std::uint64_t ticks) {
  tick_ += ticks;
  const std::uint64_t flow_ticks = ticks * net.active_slots().size();
  work_.flow_ticks += flow_ticks;
  work_.flow_ticks_lazy += flow_ticks;
}

double DcqcnPolicy::rate_bound_bps(const Network& /*net*/,
                                   std::uint32_t slot) const {
  // A decrease floors R_C at kRateFloor, which can exceed the line rate of
  // a browned-out route, so the bound must cover both.
  return std::max(line_bps_[slot], kRateFloor.bits_per_sec());
}

void DcqcnPolicy::step_tick(Network& net, TimePoint now, Duration dt) {
  if (frozen_) {
    owe_frozen(net, 1);
    return;
  }
  // --- CP: integrate egress queues and refresh marking probabilities. -----
  // Only links carrying flows or still draining backlog from departed flows
  // are touched (the shared slab's hot + wet two-pass loop); idle links stay
  // at queue == 0, mark_prob == 0.  All the arithmetic runs on raw doubles
  // (queue bytes, cached capacity bps) — the unit wrappers cost measurable
  // time at one call per link per tick.
  bool any_marked = false;
  const double dt_s = dt.to_seconds();
  const auto integrate = [&](std::size_t l, double arrival_bps)
      __attribute__((always_inline)) {
    LinkState& ls = links_[l];
    // Dry fast path: an empty queue that is not filling stays empty, and
    // its marking state is already zero from the pass that drained it.
    // Most links on most ticks are dry (e.g. host links faster than the
    // route's bottleneck), so this skips the RED math and four stores.
    if (ls.queue_b == 0.0 && arrival_bps <= ls.cap_bps) return false;
    double q = ls.queue_b + (arrival_bps - ls.cap_bps) * dt_s / 8.0;
    if (q < 0.0) q = 0.0;
    ls.queue_b = q;
    const double p = red_.probability(q);
    ls.mark_prob = p;
    // Hoists the per-flow libm work: P(packet unmarked on the route) is the
    // product of per-link (1-p), so each flow only needs the sum of these
    // logs and a single exp.  log1p(-1) = -inf gives p_any = 1 exactly.
    ls.log_keep = p > 0.0 ? std::log1p(-p) : 0.0;
    if (p > 0.0) any_marked = true;
    return q != 0.0;
  };
  // Only links that can congest under the current flow set (see cp_links_)
  // plus links still draining backlog need any CP work at all.
  links_.step(net, cp_links_, integrate);

  // --- NP + RP: per-flow CNP arrivals and rate machine updates. -----------
  if (bus_cache_ != nullptr) {
    rp_pass<true>(net, now, dt, any_marked);
  } else {
    rp_pass<false>(net, now, dt, any_marked);
  }
  ++tick_;
}

template <bool Traced>
void DcqcnPolicy::rp_pass(Network& net, TimePoint now, Duration dt,
                              bool any_marked) {
  const std::span<const std::uint32_t> slots = net.active_slots();
  const std::size_t n = slots.size();
  const std::span<double> rates = net.mutable_rates_bps();

  const double dt_s = dt.to_seconds();
  const double mtu_b = kMtu.count();
  // Flows sharing a bottleneck at equal rates (the common symmetric case)
  // feed exp the same argument; memoizing the last call halves the libm
  // cost there and is exact — same input, same output.
  double memo_x = std::numeric_limits<double>::quiet_NaN();
  double memo_p = 0.0;

  // Gather → kernel → scatter, one flow at a time: the RP rate machine over
  // the SoA columns, constants hoisted out of the loop.
  // tests/cc_kernel_parity_test.cpp holds every arithmetic step to its
  // scalar oracle bit for bit.
  const std::int64_t dt_ns = dt.ns();
  const std::int64_t cnp_max_ns = Duration::max().ns();
  const std::int64_t cnp_interval_ns = config_.cnp_interval.ns();
  const std::int64_t alpha_update_ns = kAlphaUpdate.ns();
  const double byte_counter_b = kByteCounter.count();
  const double one_minus_g = 1.0 - kG;
  const double rc_floor_bps = kRateFloor.bits_per_sec();
  const bool deterministic = config_.deterministic_marking;
  const bool owing = owing_;
  std::size_t lazy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = slots[i];
    // Gather: bytes sent this step (rates[slot] still holds last tick's
    // rate; the pass writes only the slot it is on) and the route-wide
    // marking probability.  The route walk uses the network's flat link
    // array, and the libm exp stays confined to flows that saw a marked
    // link.
    const double sent = rates[slot] * dt_s / 8.0;
    double p_any = 0.0;
    if (any_marked) {
      double sum_log = 0.0;
      for (const std::int32_t l : net.route_links(slot)) {
        sum_log += links_[l].log_keep;
      }
      if (sum_log < 0.0) {
        const double pkts = std::max(1.0, sent / mtu_b);
        const double x = pkts * sum_log;
        if (x != memo_x) {
          memo_x = x;
          memo_p = 1.0 - std::exp(x);
        }
        p_any = memo_p;
      }
    }
    if constexpr (!Traced) {
      // A pinned flow on an unmarked tick only advances clocks and
      // counters: it owes the tick (materialize replays it) and its rate
      // stays at line in the slab.
      if (p_any == 0.0 && pinned(slot)) {
        lazy_since_[slot] = std::min(lazy_since_[slot], tick_);
        ++lazy;
        continue;
      }
      if (owing && lazy_since_[slot] != kCurrent) [[unlikely]] {
        materialize(slot);
        lazy_since_[slot] = kCurrent;
      }
    }

    if (cnp_ns_[slot] < cnp_max_ns) cnp_ns_[slot] += dt_ns;
    aclk_ns_[slot] += dt_ns;

    bool cnp = false;
    const bool cnp_allowed = cnp_ns_[slot] >= cnp_interval_ns;
    if (deterministic) {
      // Written select-friendly (no stores inside branches): a clean streak
      // of one CNP interval forgets accumulated marks, and firing resets
      // them.
      const bool has_p = p_any > 0.0;
      const std::int64_t clean = has_p ? 0 : clean_ns_[slot] + dt_ns;
      double em = emarks_[slot];
      if (has_p) em += p_any;
      if (clean >= cnp_interval_ns) em = 0.0;
      clean_ns_[slot] = clean;
      cnp = cnp_allowed && em >= 1.0;
      if (cnp) em = 0.0;
      emarks_[slot] = em;
    } else {
      cnp = cnp_allowed && p_any > 0.0 && rng_.chance(p_any);
    }
    if (cnp) {
      // R_T <- R_C, alpha <- (1-g)*alpha + g, R_C <- R_C*(1 - alpha/2),
      // floored at kRateFloor so flows never starve entirely.
      rt_bps_[slot] = rc_bps_[slot];
      alpha_col_[slot] = one_minus_g * alpha_col_[slot] + kG;
      rc_bps_[slot] = rc_bps_[slot] * (1.0 - alpha_col_[slot] / 2.0);
      rc_bps_[slot] = std::max(rc_bps_[slot], rc_floor_bps);
      tsi_ns_[slot] = 0;
      bsi_bytes_[slot] = 0.0;
      timer_rounds_col_[slot] = 0;
      byte_rounds_col_[slot] = 0;
      cnp_ns_[slot] = 0;
      aclk_ns_[slot] = 0;
      if constexpr (Traced) {
        emit_rate_event(*bus_cache_, *c_cnp_, TraceEventKind::kRateDecrease,
                        now, net.flow_at(slot), rc_bps_[slot],
                        alpha_col_[slot]);
      }
    } else {
      // Alpha decays while uncongested; then timer- and byte-driven
      // increase events.
      while (aclk_ns_[slot] >= alpha_update_ns) {
        alpha_col_[slot] *= one_minus_g;
        aclk_ns_[slot] -= alpha_update_ns;
      }
      tsi_ns_[slot] += dt_ns;
      bsi_bytes_[slot] += sent;
      while (tsi_ns_[slot] >= timer_ns_[slot]) {
        tsi_ns_[slot] -= timer_ns_[slot];
        ++timer_rounds_col_[slot];
        soa_increase(slot, net.progress_at(slot));
        if constexpr (Traced) {
          emit_rate_event(*bus_cache_, *c_timer_fires_,
                          TraceEventKind::kRateTimer, now, net.flow_at(slot),
                          rc_bps_[slot], timer_rounds_col_[slot]);
        }
      }
      while (bsi_bytes_[slot] >= byte_counter_b) {
        bsi_bytes_[slot] -= byte_counter_b;
        ++byte_rounds_col_[slot];
        soa_increase(slot, net.progress_at(slot));
      }
    }
    rates[slot] = rc_bps_[slot];
  }
  work_.flow_ticks += n;
  if constexpr (!Traced) {
    owing_ = lazy != 0;
    work_.flow_ticks_lazy += lazy;
    // Every flow pinned, no link able to congest and every queue clear:
    // the next tick repeats this one, so the network freezes.
    frozen_ = lazy == n && cp_links_.empty() && links_.queues_clear();
  }
}

// Every owed tick was an unmarked tick of a pinned flow, so the eager body
// reduces to what moves without touching the rates: no CNP fires (no mark,
// emarks < 1), every increase clamps R_C and R_T back to line, and the
// slab's rate, hence `sent`, stays at line.  Each column's replay is exact:
// integer clocks in closed form (each tick leaves the remainder below the
// period, so k ticks cross floor((clock + k dt) / period) times; the CNP
// clock saturates at "never"), alpha's decays as separate multiplies, one
// per crossing, and bsi_bytes_ as the same k scalar adds, since k repeated
// adds are not k * sent.
void DcqcnPolicy::materialize(std::uint32_t slot) const {
  const std::uint64_t owed = tick_ - lazy_since_[slot];
  lazy_since_[slot] = tick_;
  if (owed == 0) return;
  const std::int64_t span = static_cast<std::int64_t>(owed) * ledger_dt_ns_;

  const std::int64_t never = Duration::max().ns();
  if (cnp_ns_[slot] < never) {
    cnp_ns_[slot] =
        span >= never - cnp_ns_[slot] ? never : cnp_ns_[slot] + span;
  }
  if (config_.deterministic_marking) {
    clean_ns_[slot] += span;
    if (clean_ns_[slot] >= config_.cnp_interval.ns()) emarks_[slot] = 0.0;
  }

  const std::int64_t alpha_update_ns = kAlphaUpdate.ns();
  const std::int64_t aclk = aclk_ns_[slot] + span;
  aclk_ns_[slot] = aclk % alpha_update_ns;
  const double one_minus_g = 1.0 - kG;
  double alpha = alpha_col_[slot];
  for (std::int64_t d = aclk / alpha_update_ns; d > 0; --d) {
    const double next = alpha * one_minus_g;
    if (next == alpha) break;  // at a fixed point the rest are no-ops
    alpha = next;
  }
  alpha_col_[slot] = alpha;

  const std::int64_t tsi = tsi_ns_[slot] + span;
  timer_rounds_col_[slot] += static_cast<std::int32_t>(tsi / timer_ns_[slot]);
  tsi_ns_[slot] = tsi % timer_ns_[slot];

  const double sent = rc_bps_[slot] * ledger_dt_s_ / 8.0;
  const double byte_counter_b = kByteCounter.count();
  double bsi = bsi_bytes_[slot];
  std::int32_t rounds = byte_rounds_col_[slot];
  for (std::uint64_t t = 0; t < owed; ++t) {
    bsi += sent;
    while (bsi >= byte_counter_b) {
      bsi -= byte_counter_b;
      ++rounds;
    }
  }
  bsi_bytes_[slot] = bsi;
  byte_rounds_col_[slot] = rounds;
}

void DcqcnPolicy::materialize_active(const Network& net) const {
  for (const std::uint32_t slot : net.active_slots()) {
    if (lazy_since_[slot] != kCurrent) materialize(slot);
  }
}

Bytes DcqcnPolicy::link_queue(LinkId link) const {
  if (!link.valid() || static_cast<std::size_t>(link.value) >= links_.size()) {
    return Bytes::zero();
  }
  return Bytes::of(links_[link.value].queue_b);
}

DcqcnPolicy::RpState DcqcnPolicy::rp_state(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  if (lazy_since_[slot] != kCurrent) materialize(slot);
  return {Rate::bps(rc_bps_[slot]), Rate::bps(rt_bps_[slot]),
          alpha_col_[slot], timer_rounds_col_[slot], byte_rounds_col_[slot]};
}

std::string DcqcnPolicy::serialize_state() const {
  // Ascending flow id: `slots_` is a hash map, and the checkpoint contract
  // is that identical live state yields identical bytes.
  const auto flows = sorted_flow_slots(slots_);

  StateBuf out;
  // Representation byte, fixed at 0 (the SoA layout).  Snapshots recorded
  // while a second layout could be selected carry it too, so keeping it
  // lets them replay-verify byte for byte without a CCKP version bump.
  out.put_u8(0);
  out.put_u64(flows.size());
  for (const auto& [id, slot] : flows) {
    if (lazy_since_[slot] != kCurrent) materialize(slot);
    out.put_i64(id);
    out.put_u32(slot);
    out.put_f64(rc_bps_[slot]);
    out.put_f64(rt_bps_[slot]);
    out.put_f64(line_bps_[slot]);
    out.put_f64(alpha_col_[slot]);
    out.put_i64(timer_ns_[slot]);
    out.put_f64(rai_bps_[slot]);
    out.put_i64(tsi_ns_[slot]);
    out.put_f64(bsi_bytes_[slot]);
    out.put_u32(static_cast<std::uint32_t>(timer_rounds_col_[slot]));
    out.put_u32(static_cast<std::uint32_t>(byte_rounds_col_[slot]));
    out.put_i64(cnp_ns_[slot]);
    out.put_i64(aclk_ns_[slot]);
    out.put_f64(emarks_[slot]);
    out.put_i64(clean_ns_[slot]);
  }
  out.put_u64(links_.size());
  for (const LinkState& l : links_.links()) {
    out.put_f64(l.queue_b);
    out.put_f64(l.cap_bps);
  }
  out.put_bytes(rng_.save_state());
  out.put_u8(links_.queues_clear() ? 1 : 0);
  return out.take();
}

}  // namespace ccml
