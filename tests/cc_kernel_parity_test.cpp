// Independent scalar oracles for the five rate-machine transports.
//
// DCQCN, TIMELY, Swift, BBR-lite and the table policy each ship one
// production kernel: slot-indexed state, a queue pass restricted to the
// links that can congest (congestible_links, cc/policy/slab.h) plus the
// slab's wet list, DCQCN's dry-link fast path and exp memo, and fused burst
// stepping behind rate_bound_bps.  The oracles below derive each transport
// again from its equations as a plain BandwidthPolicy: one record per flow,
// a dense queue pass over every link of the topology on every tick, a fresh
// exp per flow, and the default infinite rate bound, so the network always
// steps them one tick at a time.  They emit the same trace kinds and
// counters and serialize the same bytes.
//
// Production must match its oracle bit for bit: per-tick rates (memcmp),
// completion times, JSONL trace bytes, counters and serialize_state() in
// flight and at the end.  Every configuration runs the plain contest, a
// mid-run bottleneck brownout and a brownout of one destination host link
// below the rate floors, traced (a JSONL bus bound) and untraced, watched
// (an observer on, both step every tick) and unwatched (production fused,
// the oracle per tick).
//
// Untraced, DCQCN skips flows pinned at line rate and replays the ticks
// they owe only when something reads them (docs/performance.md, "DCQCN at
// its fixed point").  The leaf-spine contests hold that lazy path to the
// eager oracle: a fabric that freezes (snapshots taken while frozen),
// park/unpark and reroute, a mid-run replace_policy, a bus bound and
// unbound mid-run, and a CNP left pending while a flow regains line rate.
// Each asserts that production owed ticks, so none passes vacuously.  The
// other four transports run the same shapes, which move flows between
// links and so rebuild their congestible sets.  Last, each of those four
// runs its fused burst loop against per-tick stepping across a host-link
// brownout below the rate floor, which puts that link in the congestible
// set through the floor alone and takes it out again on restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cc/bbr.h"
#include "cc/dcqcn.h"
#include "cc/swift.h"
#include "cc/table.h"
#include "cc/timely.h"
#include "ckpt/snapshot.h"
#include "net/network.h"
#include "net/routing.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ccml {
namespace {

// --- Oracle helpers ----------------------------------------------------------

/// Sum of the current rates of the flows crossing link `l`, in the network's
/// per-link flow order (the order fixes the floating-point sum).
double arrival_bps(const Network& net, std::size_t l) {
  double sum = 0.0;
  for (const std::uint32_t slot :
       net.flow_slots_on_link(LinkId{static_cast<std::int32_t>(l)})) {
    sum += net.rates_bps()[slot];
  }
  return sum;
}

/// Smallest effective capacity along the flow's route.
double line_bps(const Network& net, const Flow& flow) {
  double line = std::numeric_limits<double>::infinity();
  for (const LinkId lid : flow.spec.route.links) {
    line = std::min(line, net.effective_capacity(lid).bits_per_sec());
  }
  return line;
}

void emit(Network& net, TraceEventKind kind, const char* counter,
          TimePoint now, const Flow& flow, double value, double value2,
          const char* detail = nullptr) {
  TraceBus* bus = net.trace_bus();
  if (bus == nullptr) return;
  TraceEvent ev;
  ev.time = now;
  ev.kind = kind;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  ev.value = value;
  ev.value2 = value2;
  ev.detail = detail;
  bus->emit(ev);
  bus->counter(counter).add();
}

/// Per-flow records by slot plus the live id -> slot map; std::map keeps
/// ids ascending, the order serialize_state() writes.
template <typename Record>
struct FlowTable {
  std::vector<Record> by_slot;
  std::map<std::int64_t, std::uint32_t> ids;

  Record& start(const Network& net, const Flow& flow) {
    const std::uint32_t slot = net.slot_of(flow.id);
    if (by_slot.size() <= slot) by_slot.resize(slot + 1);
    ids[flow.id.value] = slot;
    by_slot[slot] = Record{};
    return by_slot[slot];
  }
  void finish(const Flow& flow) { ids.erase(flow.id.value); }
  Record& operator[](std::uint32_t slot) { return by_slot[slot]; }
};

// --- DCQCN -------------------------------------------------------------------

class DcqcnOracle final : public BandwidthPolicy {
 public:
  explicit DcqcnOracle(DcqcnConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

  const char* name() const override {
    return cfg_.adaptive_rai ? "dcqcn-adaptive" : "dcqcn";
  }

  void on_flow_started(Network& net, Flow& flow) override {
    size_links(net);
    Rp& s = flows_.start(net, flow);
    s.line = line_bps(net, flow);
    s.rc = s.line;
    s.rt = s.line;
    s.timer_ns = (flow.spec.cc_timer.is_positive() ? flow.spec.cc_timer
                                                   : cfg_.timer)
                     .ns();
    s.rai = (flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai
                                            : DcqcnPolicy::kRai)
                .bits_per_sec();
    net.set_rate(net.slot_of(flow.id), Rate::bps(s.rc));
  }

  void on_flow_finished(Network&, const Flow& flow) override {
    flows_.finish(flow);
  }

  void on_link_capacity_changed(Network& net, LinkId) override {
    for (const std::uint32_t slot : net.active_slots()) {
      Rp& s = flows_[slot];
      s.line = line_bps(net, net.flow_at(slot));
      s.rc = std::min(s.rc, s.line);
      s.rt = std::min(s.rt, s.line);
      net.set_rate(slot, Rate::bps(s.rc));
    }
  }

  void update_rates(Network& net, TimePoint now, Duration dt) override {
    size_links(net);
    const double dt_s = dt.to_seconds();
    const std::int64_t dt_ns = dt.ns();

    // CP: every link, every tick.
    clear_ = true;
    for (std::size_t l = 0; l < links_.size(); ++l) {
      const double cap =
          net.effective_capacity(LinkId{static_cast<std::int32_t>(l)})
              .bits_per_sec();
      Cp& c = links_[l];
      c.queue =
          std::max(0.0, c.queue + (arrival_bps(net, l) - cap) * dt_s / 8.0);
      double p = 0.0;
      if (c.queue >= kmax()) {
        p = 1.0;
      } else if (c.queue > kmin()) {
        p = (c.queue - kmin()) * (cfg_.pmax / (kmax() - kmin()));
      }
      c.log_keep = p > 0.0 ? std::log1p(-p) : 0.0;
      if (c.queue != 0.0) clear_ = false;
    }

    // NP + RP, one flow record at a time.
    const std::int64_t never = Duration::max().ns();
    for (const std::uint32_t slot : net.active_slots()) {
      const Flow& flow = net.flow_at(slot);
      Rp& s = flows_[slot];
      const double sent = net.rates_bps()[slot] * dt_s / 8.0;
      double sum_log = 0.0;
      for (const LinkId lid : flow.spec.route.links) {
        sum_log += links_[lid.value].log_keep;
      }
      double p_any = 0.0;
      if (sum_log < 0.0) {
        const double pkts =
            std::max(1.0, sent / DcqcnPolicy::kMtu.count());
        p_any = 1.0 - std::exp(pkts * sum_log);
      }

      if (s.cnp_ns < never) s.cnp_ns += dt_ns;
      s.alpha_ns += dt_ns;
      const bool allowed = s.cnp_ns >= cfg_.cnp_interval.ns();
      bool cnp = false;
      if (cfg_.deterministic_marking) {
        if (p_any > 0.0) {
          s.marks += p_any;
          s.clean_ns = 0;
        } else {
          s.clean_ns += dt_ns;
          if (s.clean_ns >= cfg_.cnp_interval.ns()) s.marks = 0.0;
        }
        if (allowed && s.marks >= 1.0) {
          cnp = true;
          s.marks = 0.0;
        }
      } else {
        cnp = allowed && p_any > 0.0 && rng_.chance(p_any);
      }

      if (cnp) {
        s.rt = s.rc;
        s.alpha = (1.0 - DcqcnPolicy::kG) * s.alpha + DcqcnPolicy::kG;
        s.rc = std::max(s.rc * (1.0 - s.alpha / 2.0),
                        Rate::mbps(10).bits_per_sec());
        s.since_inc_ns = 0;
        s.since_inc_b = 0.0;
        s.timer_rounds = 0;
        s.byte_rounds = 0;
        s.cnp_ns = 0;
        s.alpha_ns = 0;
        emit(net, TraceEventKind::kRateDecrease, "dcqcn.cnp", now, flow, s.rc,
             s.alpha);
      } else {
        while (s.alpha_ns >= DcqcnPolicy::kAlphaUpdate.ns()) {
          s.alpha *= 1.0 - DcqcnPolicy::kG;
          s.alpha_ns -= DcqcnPolicy::kAlphaUpdate.ns();
        }
        s.since_inc_ns += dt_ns;
        s.since_inc_b += sent;
        while (s.since_inc_ns >= s.timer_ns) {
          s.since_inc_ns -= s.timer_ns;
          ++s.timer_rounds;
          increase(s, net.progress_at(slot));
          emit(net, TraceEventKind::kRateTimer, "dcqcn.timer_fires", now, flow,
               s.rc, s.timer_rounds);
        }
        while (s.since_inc_b >= DcqcnPolicy::kByteCounter.count()) {
          s.since_inc_b -= DcqcnPolicy::kByteCounter.count();
          ++s.byte_rounds;
          increase(s, net.progress_at(slot));
        }
      }
      net.set_rate(slot, Rate::bps(s.rc));
    }
  }

  bool quiescent() const override { return clear_; }

  DcqcnPolicy::RpState rp_state(FlowId id) const {
    const Rp& s = flows_.by_slot[flows_.ids.at(id.value)];
    return {Rate::bps(s.rc), Rate::bps(s.rt), s.alpha, s.timer_rounds,
            s.byte_rounds};
  }

  std::string serialize_state() const override {
    StateBuf out;
    out.put_u8(0);
    out.put_u64(flows_.ids.size());
    for (const auto& [id, slot] : flows_.ids) {
      const Rp& s = flows_.by_slot[slot];
      out.put_i64(id);
      out.put_u32(slot);
      out.put_f64(s.rc);
      out.put_f64(s.rt);
      out.put_f64(s.line);
      out.put_f64(s.alpha);
      out.put_i64(s.timer_ns);
      out.put_f64(s.rai);
      out.put_i64(s.since_inc_ns);
      out.put_f64(s.since_inc_b);
      out.put_u32(static_cast<std::uint32_t>(s.timer_rounds));
      out.put_u32(static_cast<std::uint32_t>(s.byte_rounds));
      out.put_i64(s.cnp_ns);
      out.put_i64(s.alpha_ns);
      out.put_f64(s.marks);
      out.put_i64(s.clean_ns);
    }
    out.put_u64(links_.size());
    for (std::size_t l = 0; l < links_.size(); ++l) {
      out.put_f64(links_[l].queue);
      out.put_f64(net_->effective_capacity(LinkId{static_cast<std::int32_t>(l)})
                      .bits_per_sec());
    }
    out.put_bytes(rng_.save_state());
    out.put_u8(clear_ ? 1 : 0);
    return out.take();
  }

 private:
  struct Rp {
    double rc = 0.0;
    double rt = 0.0;
    double line = 0.0;
    double alpha = 1.0;
    std::int64_t timer_ns = 0;
    double rai = 0.0;
    std::int64_t since_inc_ns = 0;
    double since_inc_b = 0.0;
    int timer_rounds = 0;
    int byte_rounds = 0;
    std::int64_t cnp_ns = Duration::max().ns();
    std::int64_t alpha_ns = 0;
    double marks = 0.0;
    std::int64_t clean_ns = 0;
  };
  struct Cp {
    double queue = 0.0;
    double log_keep = 0.0;
  };

  double kmin() const { return cfg_.kmin.count(); }
  double kmax() const { return cfg_.kmax.count(); }

  void size_links(const Network& net) {
    net_ = &net;
    links_.resize(std::max(links_.size(), net.topology().link_count()));
  }

  void increase(Rp& s, double progress) const {
    const int f = DcqcnPolicy::kFastRecoveryRounds;
    if (s.timer_rounds >= f && s.byte_rounds >= f) {
      s.rt += DcqcnPolicy::kRhai.bits_per_sec();
    } else if (s.timer_rounds >= f || s.byte_rounds >= f) {
      s.rt += cfg_.adaptive_rai ? s.rai * (1.0 + progress) : s.rai;
    }
    s.rc = std::min((s.rt + s.rc) * 0.5, s.line);
    s.rt = std::min(s.rt, s.line);
  }

  DcqcnConfig cfg_;
  Rng rng_;
  const Network* net_ = nullptr;
  FlowTable<Rp> flows_;
  std::vector<Cp> links_;
  bool clear_ = true;
};

// --- The rate machines: one queue model, four decision laws ----------------

/// The fluid queue the rate-machine oracles sample: every link, every tick,
/// in Bytes so the rounding is that of the unit types.
class QueueOracle : public BandwidthPolicy {
 public:
  bool quiescent() const override { return clear_; }

 protected:
  void size_queues(const Network& net) {
    queue_.resize(std::max(queue_.size(), net.topology().link_count()));
  }

  void step_queues(const Network& net, Duration dt) {
    size_queues(net);
    clear_ = true;
    for (std::size_t l = 0; l < queue_.size(); ++l) {
      const Rate cap =
          net.effective_capacity(LinkId{static_cast<std::int32_t>(l)});
      const Bytes q = queue_[l] + (Rate::bps(arrival_bps(net, l)) - cap) * dt;
      queue_[l] = q < Bytes::zero() ? Bytes::zero() : q;
      if (!queue_[l].is_zero()) clear_ = false;
    }
  }

  /// Base RTT plus the queueing delay of every live link on the route.
  Duration sample_rtt(const Network& net, const Flow& flow,
                      Duration base) const {
    Duration rtt = base;
    for (const LinkId lid : flow.spec.route.links) {
      const Rate cap = net.effective_capacity(lid);
      if (cap.is_positive()) rtt += transfer_time(queue_[lid.value], cap);
    }
    return rtt;
  }

  double queue_bytes(LinkId link) const { return queue_[link.value].count(); }

  void serialize_queues(StateBuf& out) const {
    out.put_u64(queue_.size());
    for (const Bytes q : queue_) out.put_f64(q.count());
    out.put_u8(clear_ ? 1 : 0);
  }

 private:
  std::vector<Bytes> queue_;
  bool clear_ = true;
};

/// The lifecycle every rate-machine oracle shares: a flow starts at its line
/// rate, and a capacity change refreshes every line rate and caps the rate
/// under it.  `Record` holds rate and line.
template <typename Record>
class RateOracle : public QueueOracle {
 public:
  void on_flow_started(Network& net, Flow& flow) override {
    size_queues(net);
    Record& s = flows_.start(net, flow);
    s.line = line_bps(net, flow);
    s.rate = s.line;
    init(flow, s);
    net.set_rate(net.slot_of(flow.id), Rate::bps(s.rate));
  }

  void on_flow_finished(Network&, const Flow& flow) override {
    flows_.finish(flow);
  }

  void on_link_capacity_changed(Network& net, LinkId) override {
    for (const std::uint32_t slot : net.active_slots()) {
      Record& s = flows_[slot];
      s.line = line_bps(net, net.flow_at(slot));
      s.rate = std::min(s.rate, s.line);
      net.set_rate(slot, Rate::bps(s.rate));
    }
  }

 protected:
  virtual void init(const Flow& flow, Record& s) = 0;

  /// Clamps to [floor, line]; the line rate wins below the floor.
  static double clamp(double rate, const Record& s) {
    if (rate < kRateFloor.bits_per_sec()) rate = kRateFloor.bits_per_sec();
    return rate > s.line ? s.line : rate;
  }

  /// Each live flow's id, slot and rate columns, ids ascending.
  template <typename PutFlow>
  void serialize_flows(StateBuf& out, PutFlow&& put) const {
    out.put_u64(flows_.ids.size());
    for (const auto& [id, slot] : flows_.ids) {
      const Record& s = flows_.by_slot[slot];
      out.put_i64(id);
      out.put_u32(slot);
      out.put_f64(s.rate);
      out.put_f64(s.line);
      put(s);
    }
  }

  FlowTable<Record> flows_;
};

/// Per-flow record of the two delay-based oracles.
struct DelayFlow {
  double rate = 0.0;
  double line = 0.0;
  double step = 0.0;  ///< TIMELY's delta or Swift's AI
  Duration prev_rtt = Duration::zero();
  double ewma = 0.0;
  int good_rounds = 0;
  std::int64_t since_ns = 0;
  double gradient = 0.0;
};

/// What TIMELY's and Swift's oracles share: the additive step.
/// Subclasses supply the decisions.
class DelayOracle : public RateOracle<DelayFlow> {
 protected:
  explicit DelayOracle(Rate default_step) : default_step_(default_step) {}

 private:
  void init(const Flow& flow, DelayFlow& s) override {
    s.step = (flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : default_step_)
                 .bits_per_sec();
  }

  Rate default_step_;
};

class TimelyOracle final : public DelayOracle {
 public:
  explicit TimelyOracle(TimelyConfig cfg)
      : DelayOracle(TimelyPolicy::kDelta), cfg_(cfg) {}

  const char* name() const override {
    return cfg_.phase_scaling ? "mltcp-timely" : "timely";
  }

  void update_rates(Network& net, TimePoint now, Duration dt) override {
    step_queues(net, dt);
    const double min_bps = kRateFloor.bits_per_sec();
    for (const std::uint32_t slot : net.active_slots()) {
      const Flow& flow = net.flow_at(slot);
      DelayFlow& s = flows_[slot];
      s.since_ns += dt.ns();
      if (s.since_ns >= TimelyPolicy::kUpdateInterval.ns()) {
        s.since_ns = 0;
        const Duration rtt = sample_rtt(net, flow, kBaseRtt);
        const double diff_us = rtt.to_micros() - s.prev_rtt.to_micros();
        s.prev_rtt = rtt;
        s.ewma = (1.0 - kGradientEwma) * s.ewma + kGradientEwma * diff_us;
        s.gradient = s.ewma / kBaseRtt.to_micros();

        const double progress = net.progress_at(slot);
        const double delta =
            cfg_.phase_scaling ? s.step * (1.0 + progress) : s.step;
        bool decreased = false;
        constexpr double kBeta = TimelyPolicy::kBeta;
        if (rtt < TimelyPolicy::kTLow) {
          s.rate += delta;
          ++s.good_rounds;
        } else if (rtt > TimelyPolicy::kTHigh) {
          s.rate *= 1.0 - kBeta * (1.0 - TimelyPolicy::kTHigh / rtt);
          s.good_rounds = 0;
          decreased = true;
        } else if (s.gradient <= 0.0) {
          ++s.good_rounds;
          s.rate += delta * (s.good_rounds >= TimelyPolicy::kHaiThreshold
                                 ? 5.0
                                 : 1.0);
        } else {
          s.rate *= 1.0 - kBeta * std::min(s.gradient, 1.0);
          s.good_rounds = 0;
          decreased = true;
        }
        // The line rate wins where a brownout pushes it below the floor.
        if (s.rate < min_bps) s.rate = min_bps;
        if (s.rate > s.line) s.rate = s.line;
        if (decreased) {
          emit(net, TraceEventKind::kRateDecrease, "timely.decreases", now,
               flow, s.rate, s.gradient);
        }
      }
      net.set_rate(slot, Rate::bps(s.rate));
    }
  }

  std::string serialize_state() const override {
    StateBuf out;
    out.put_u8(0);
    serialize_flows(out, [&out](const DelayFlow& s) {
      out.put_f64(s.step);
      out.put_i64(s.prev_rtt.ns());
      out.put_f64(s.ewma);
      out.put_u32(static_cast<std::uint32_t>(s.good_rounds));
      out.put_i64(s.since_ns);
      out.put_f64(s.gradient);
    });
    serialize_queues(out);
    return out.take();
  }

 private:
  TimelyConfig cfg_;
};

class SwiftOracle final : public DelayOracle {
 public:
  explicit SwiftOracle(SwiftConfig cfg)
      : DelayOracle(SwiftPolicy::kAi), cfg_(cfg), rng_(cfg.seed) {}

  const char* name() const override {
    return cfg_.phase_scaling ? "mltcp-swift" : "swift";
  }

  void update_rates(Network& net, TimePoint now, Duration dt) override {
    step_queues(net, dt);
    for (const std::uint32_t slot : net.active_slots()) {
      const Flow& flow = net.flow_at(slot);
      DelayFlow& s = flows_[slot];
      s.since_ns += dt.ns();
      if (s.since_ns >= cfg_.update_interval.ns()) {
        s.since_ns = 0;
        const Duration rtt = sample_rtt(net, flow, kBaseRtt);
        // No previous sample on the first decision: zero change.
        const double diff_us = s.prev_rtt.is_zero()
                                   ? 0.0
                                   : rtt.to_micros() - s.prev_rtt.to_micros();
        s.prev_rtt = rtt;
        s.ewma = (1.0 - kGradientEwma) * s.ewma + kGradientEwma * diff_us;
        s.gradient = s.ewma / kBaseRtt.to_micros();

        const double progress = net.progress_at(slot);
        CcObservation obs;
        obs.rtt_us = rtt.to_micros();
        obs.rtt_gradient = s.gradient;
        obs.phase_progress = progress;
        double target_us = SwiftPolicy::kTargetDelay.to_micros();
        if (cfg_.target_jitter_us != 0.0) {
          target_us += cfg_.target_jitter_us * (2.0 * rng_.uniform() - 1.0);
        }
        const SwiftDecision d = swift_decide(
            obs, target_us, s.rate,
            cfg_.phase_scaling ? s.step * (1.0 + progress) : s.step,
            kRateFloor.bits_per_sec(), s.line);
        s.rate = d.rate_bps;
        if (d.decreased) {
          emit(net, TraceEventKind::kRateDecrease, "swift.decreases", now,
               flow, s.rate, s.gradient);
        }
      }
      net.set_rate(slot, Rate::bps(s.rate));
    }
  }

  std::string serialize_state() const override {
    StateBuf out;
    out.put_u8(0);
    serialize_flows(out, [&out](const DelayFlow& s) {
      out.put_f64(s.step);
      out.put_i64(s.prev_rtt.ns());
      out.put_f64(s.ewma);
      out.put_i64(s.since_ns);
      out.put_f64(s.gradient);
    });
    serialize_queues(out);
    out.put_bytes(rng_.save_state());
    return out.take();
  }

 private:
  SwiftConfig cfg_;
  Rng rng_;
};

struct BbrRecord {
  double rate = 0.0;
  double line = 0.0;
  double btl_bw = 0.0;
  double full_bw = 0.0;
  double delivered = 0.0;
  std::int64_t min_rtt_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t min_rtt_at_ns = 0;
  std::int64_t probe_rtt_end_ns = 0;
  std::int64_t interval_ns = 0;
  std::int64_t since_ns = 0;
  BbrMode mode = BbrMode::kStartup;
  int cycle = 0;
  int bw_age = 0;
  int full_rounds = 0;
};

/// BBR-lite: each tick a flow delivers what it sent times the smallest
/// capacity / arrival ratio of its route's overloaded links; each decision
/// feeds that delivery into the bandwidth max filter and steps the
/// four-phase machine.
class BbrOracle final : public RateOracle<BbrRecord> {
 public:
  explicit BbrOracle(BbrConfig cfg) : rng_(cfg.seed) {}

  const char* name() const override { return "bbr"; }

  void update_rates(Network& net, TimePoint now, Duration dt) override {
    step_queues(net, dt);
    // Drain fractions at the rates the flows sent at over this tick.
    std::vector<double> frac(net.topology().link_count());
    for (std::size_t l = 0; l < frac.size(); ++l) {
      const double arrival = arrival_bps(net, l);
      const double cap =
          net.effective_capacity(LinkId{static_cast<std::int32_t>(l)})
              .bits_per_sec();
      frac[l] = arrival > cap ? cap / arrival : 1.0;
    }
    const double dt_s = dt.to_seconds();
    for (const std::uint32_t slot : net.active_slots()) {
      const Flow& flow = net.flow_at(slot);
      BbrRecord& s = flows_[slot];
      double worst = 1.0;
      for (const LinkId lid : flow.spec.route.links) {
        worst = std::min(worst, frac[lid.value]);
      }
      s.delivered += net.rates_bps()[slot] * dt_s / 8.0 * worst;
      s.since_ns += dt.ns();
      if (s.since_ns >= s.interval_ns) decide(net, now, flow, s);
      net.set_rate(slot, Rate::bps(s.rate));
    }
  }

  std::string serialize_state() const override {
    StateBuf out;
    serialize_flows(out, [&out](const BbrRecord& s) {
      out.put_f64(s.btl_bw);
      out.put_f64(s.full_bw);
      out.put_f64(s.delivered);
      out.put_i64(s.min_rtt_ns);
      out.put_i64(s.min_rtt_at_ns);
      out.put_i64(s.probe_rtt_end_ns);
      out.put_i64(s.interval_ns);
      out.put_i64(s.since_ns);
      out.put_u32(static_cast<std::uint32_t>(s.mode));
      out.put_u32(static_cast<std::uint32_t>(s.cycle));
      out.put_u32(static_cast<std::uint32_t>(s.bw_age));
      out.put_u32(static_cast<std::uint32_t>(s.full_rounds));
    });
    serialize_queues(out);
    out.put_bytes(rng_.save_state());
    return out.take();
  }

 private:
  void init(const Flow& flow, BbrRecord& s) override {
    s.interval_ns = (flow.spec.cc_timer.is_positive()
                         ? flow.spec.cc_timer
                         : BbrPolicy::kUpdateInterval)
                        .ns();
    s.cycle = static_cast<int>(rng_.uniform_int(0, 7));
  }

  static double cycle_gain(int cycle) {
    return cycle == 0   ? BbrPolicy::kProbeUpGain
           : cycle == 1 ? BbrPolicy::kProbeDownGain
                        : 1.0;
  }

  void decide(Network& net, TimePoint now, const Flow& flow, BbrRecord& s) {
    const double sample =
        s.delivered * 8.0 / (static_cast<double>(s.since_ns) * 1e-9);
    s.since_ns = 0;
    s.delivered = 0.0;
    ++s.bw_age;
    if (sample >= s.btl_bw || s.bw_age >= BbrPolicy::kBwWindowRounds) {
      s.btl_bw = sample;
      s.bw_age = 0;
    }
    const Duration rtt = sample_rtt(net, flow, kBaseRtt);
    double backlog = 0.0;
    for (const LinkId lid : flow.spec.route.links) backlog += queue_bytes(lid);
    const std::int64_t now_ns = now.since_origin().ns();
    if (rtt.ns() <= s.min_rtt_ns) {
      s.min_rtt_ns = rtt.ns();
      s.min_rtt_at_ns = now_ns;
    }

    BbrMode mode = s.mode;
    double gain = BbrPolicy::kDrainGain;
    if (mode == BbrMode::kStartup) {
      gain = BbrPolicy::kStartupGain;
      if (s.btl_bw >= s.full_bw * BbrPolicy::kStartupGrowth) {
        s.full_bw = s.btl_bw;
        s.full_rounds = 0;
      } else if (++s.full_rounds >= BbrPolicy::kStartupFullRounds) {
        mode = BbrMode::kDrain;
        gain = BbrPolicy::kDrainGain;
      }
    } else if (mode == BbrMode::kDrain) {
      if (backlog == 0.0) {
        mode = BbrMode::kProbeBw;
        gain = cycle_gain(s.cycle);
      }
    } else if (mode == BbrMode::kProbeBw) {
      if (now_ns - s.min_rtt_at_ns > BbrPolicy::kMinRttWindow.ns()) {
        mode = BbrMode::kProbeRtt;
        s.probe_rtt_end_ns = now_ns + BbrPolicy::kProbeRttDuration.ns();
      } else {
        gain = cycle_gain(s.cycle);
        s.cycle = (s.cycle + 1) % 8;
      }
    } else if (now_ns >= s.probe_rtt_end_ns) {  // kProbeRtt
      s.min_rtt_ns = rtt.ns();
      s.min_rtt_at_ns = now_ns;
      mode = BbrMode::kProbeBw;
    }

    s.rate = clamp(gain * s.btl_bw, s);
    if (mode != s.mode) {
      s.mode = mode;
      emit(net, TraceEventKind::kCcPhase, "bbr.phase_changes", now, flow,
           static_cast<double>(static_cast<int>(mode)), s.rate,
           to_string(mode));
    }
  }

  Rng rng_;
};

struct TableRecord {
  double rate = 0.0;
  double line = 0.0;
  Duration prev_rtt = Duration::zero();
  double ewma = 0.0;
  double sent = 0.0;  ///< bytes sent since the last decision
  std::int64_t since_ns = 0;
  int rule = -1;
};

/// The table policy: each decision assembles RTT, gradient (first sample
/// counts as no change), route ECN fraction from the RED profile, bytes
/// sent and flow progress, and applies the first matching rule's action.
class TableOracle final : public RateOracle<TableRecord> {
 public:
  explicit TableOracle(TableConfig cfg)
      : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

  const char* name() const override { return "table"; }

  void update_rates(Network& net, TimePoint now, Duration dt) override {
    step_queues(net, dt);
    const double dt_s = dt.to_seconds();
    for (const std::uint32_t slot : net.active_slots()) {
      TableRecord& s = flows_[slot];
      s.sent += net.rates_bps()[slot] * dt_s / 8.0;
      s.since_ns += dt.ns();
      if (s.since_ns >= cfg_.table.cadence().ns()) {
        s.since_ns = 0;
        decide(net, now, slot, s);
      }
      net.set_rate(slot, Rate::bps(s.rate));
    }
  }

  std::string serialize_state() const override {
    StateBuf out;
    serialize_flows(out, [&out](const TableRecord& s) {
      out.put_f64(s.ewma);
      out.put_f64(s.ewma / kBaseRtt.to_micros());
      out.put_f64(s.sent);
      out.put_i64(s.prev_rtt.ns());
      out.put_i64(s.since_ns);
      out.put_u32(static_cast<std::uint32_t>(s.rule));
    });
    serialize_queues(out);
    out.put_bytes(rng_.save_state());
    return out.take();
  }

 private:
  void init(const Flow&, TableRecord&) override {}

  static double mark_probability(double queue) {
    const double kmin = kRedKmin.count();
    const double kmax = kRedKmax.count();
    if (queue <= kmin) return 0.0;
    if (queue >= kmax) return 1.0;
    return (queue - kmin) * (kRedPmax / (kmax - kmin));
  }

  void decide(Network& net, TimePoint now, std::uint32_t slot,
              TableRecord& s) {
    const Flow& flow = net.flow_at(slot);
    const Duration rtt = sample_rtt(net, flow, kBaseRtt);
    double sum_log_keep = 0.0;
    for (const LinkId lid : flow.spec.route.links) {
      const double p = mark_probability(queue_bytes(lid));
      sum_log_keep += p > 0.0 ? std::log1p(-std::min(p, 1.0 - 1e-12)) : 0.0;
    }
    const double diff_us = s.prev_rtt.is_zero()
                               ? 0.0
                               : rtt.to_micros() - s.prev_rtt.to_micros();
    s.prev_rtt = rtt;
    s.ewma = (1.0 - kGradientEwma) * s.ewma + kGradientEwma * diff_us;

    CcObservation obs;
    obs.rtt_us = rtt.to_micros();
    obs.rtt_gradient = s.ewma / kBaseRtt.to_micros();
    obs.ecn_fraction =
        sum_log_keep < 0.0 ? 1.0 - std::exp(sum_log_keep) : 0.0;
    obs.delivered_bytes = s.sent;
    obs.phase_progress = net.progress_at(slot);
    s.sent = 0.0;

    CcAction action;
    s.rule = cfg_.table.lookup(obs, action);
    if (cfg_.explore > 0.0) {
      action.rate_multiplier *=
          1.0 + cfg_.explore * (2.0 * rng_.uniform() - 1.0);
    }
    s.rate = clamp(s.rate * action.rate_multiplier + action.additive_bps, s);
    emit(net, TraceEventKind::kCcDecision, "table.decisions", now, flow,
         s.rate, static_cast<double>(s.rule));
  }

  TableConfig cfg_;
  Rng rng_;
};

// --- The contest -------------------------------------------------------------

/// Samples every active flow's exact rate bits after each executed step.
class RateRecorder : public NetObserver {
 public:
  void on_step(const Network& net, TimePoint) override {
    for (const std::uint32_t slot : net.active_slots()) {
      samples_.push_back(net.rates_bps()[slot]);
    }
  }
  bool quiescence_compatible() const override { return true; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

enum class Brownout {
  kNone,
  /// The shared bottleneck at 40 % from 9 ms to 12 ms.
  kBottleneck,
  /// Pair 0's destination host link at 1e-4 of its capacity (4.25 Mbps,
  /// below every transport's 10 Mbps floor) from 8.06 ms to 20 ms.  The
  /// start lands between the second round's first two CNPs, so the next
  /// one floors DCQCN's rate above the new line rate on a link it crosses
  /// alone.
  kBelowFloor,
};

struct RunResult {
  std::vector<double> rates;      // per-tick per-flow exact rate doubles
  std::vector<double> finish_ms;  // completion times, exact
  std::string trace;              // JSONL bytes
  std::string counters;           // TraceBus::metrics_summary()
  std::vector<std::string> states;  // serialize_state() in flight and at end
  std::uint64_t lazy_ticks = 0;   // flow-ticks production owed (DCQCN only)
};

/// Flow-ticks a production DCQCN policy advanced lazily; 0 for the rest.
std::uint64_t lazy_ticks_of(const BandwidthPolicy& policy) {
  const auto* dcqcn = dynamic_cast<const DcqcnPolicy*>(&policy);
  return dcqcn != nullptr ? dcqcn->work().flow_ticks_lazy : 0;
}

using MakePolicy = std::function<std::unique_ptr<BandwidthPolicy>()>;

/// One asymmetric contest on a dumbbell: two flows with different
/// aggressiveness crossing the bottleneck, restarted over three rounds so
/// flow finish/start edges and queue drain stretches are covered.  `observe`
/// attaches the per-tick rate recorder, which disables fused stepping;
/// `traced` binds a JSONL bus.
RunResult run_contest(const MakePolicy& make_policy, bool observe,
                      Brownout brownout, bool traced) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, make_policy(), cfg);
  net.attach(sim);

  RunResult result;
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out);
  bus.add_sink(sink);
  if (traced) net.set_trace_bus(&bus);

  RateRecorder recorder;
  if (observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const Route pair0 = router.pick(hosts[0], hosts[1], 0);
  if (brownout != Brownout::kNone) {
    const bool deep = brownout == Brownout::kBelowFloor;
    const LinkId link = deep ? pair0.links[2] : pair0.links[1];
    const double factor = deep ? 1e-4 : 0.4;
    sim.schedule_at(TimePoint::origin() + Duration::micros(deep ? 8060 : 9000),
                    [&net, link, factor] {
                      net.set_link_capacity_factor(link, factor);
                    });
    sim.schedule_at(TimePoint::origin() + Duration::millis(deep ? 20 : 12),
                    [&net, link] { net.set_link_capacity_factor(link, 1.0); });
  }

  const auto start = [&](int pair, Duration timer, Rate rai) {
    FlowSpec fs;
    fs.src = hosts[pair * 2];
    fs.dst = hosts[pair * 2 + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = Bytes::mega(8);
    fs.cc_timer = timer;
    fs.cc_rai = rai;
    net.start_flow(std::move(fs), [&result](const Flow&, TimePoint t) {
      result.finish_ms.push_back(t.since_origin().to_millis());
    });
  };
  // Aggressive vs meek sender (the paper's Figure 1 shape).
  for (int round = 0; round < 3; ++round) {
    start(0, Duration::micros(55), Rate::mbps(80));
    start(1, Duration::micros(300), Rate::mbps(40));
    sim.run_for(Duration::millis(1));
    result.states.push_back(net.policy().serialize_state());
    sim.run_for(Duration::millis(7));
  }
  sim.run_for(Duration::millis(60));  // let the contest finish
  result.states.push_back(net.policy().serialize_state());

  bus.flush();
  result.rates = recorder.samples();
  result.trace = trace_out.str();
  result.counters = bus.metrics_summary();
  result.lazy_ticks = lazy_ticks_of(net.policy());
  return result;
}

void expect_bit_identical(const RunResult& oracle, const RunResult& prod) {
  ASSERT_EQ(oracle.rates.size(), prod.rates.size());
  if (!oracle.rates.empty()) {
    // memcmp: bit-level equality, catches -0.0 vs 0.0 and NaN payloads that
    // operator== would wave through.
    EXPECT_EQ(std::memcmp(oracle.rates.data(), prod.rates.data(),
                          oracle.rates.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(oracle.finish_ms, prod.finish_ms);
  EXPECT_EQ(oracle.trace, prod.trace);
  EXPECT_EQ(oracle.counters, prod.counters);
  ASSERT_EQ(oracle.states.size(), prod.states.size());
  for (std::size_t i = 0; i < oracle.states.size(); ++i) {
    EXPECT_EQ(oracle.states[i], prod.states[i]) << "serialize_state " << i;
  }
}

/// Runs production against its oracle on every contest, traced and
/// untraced, watched and unwatched.  Unwatched, production fuses its
/// completion-free ticks while the oracle still steps every tick.
void expect_matches_oracle(const MakePolicy& production,
                           const MakePolicy& oracle) {
  for (const Brownout brownout :
       {Brownout::kNone, Brownout::kBottleneck, Brownout::kBelowFloor}) {
    for (const bool traced : {true, false}) {
      for (const bool observe : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "brownout " << static_cast<int>(brownout)
                     << (traced ? ", traced" : ", untraced")
                     << (observe ? ", watched" : ", unwatched"));
        const RunResult want = run_contest(oracle, observe, brownout, traced);
        const RunResult got =
            run_contest(production, observe, brownout, traced);
        ASSERT_EQ(want.finish_ms.size(), 6u);
        ASSERT_EQ(want.trace.empty(), !traced);
        ASSERT_EQ(want.rates.empty(), !observe);
        expect_bit_identical(want, got);
      }
    }
  }
}

template <typename Production, typename Oracle, typename Config>
void expect_matches_oracle(const Config& cfg) {
  expect_matches_oracle([&] { return std::make_unique<Production>(cfg); },
                        [&] { return std::make_unique<Oracle>(cfg); });
}

// --- DCQCN's lazy path on a leaf-spine --------------------------------------

/// rp_state() of every active flow as exact bytes, from production DCQCN or
/// its oracle, whichever drives `net`; empty under any other transport.
std::string rp_states(const Network& net) {
  StateBuf out;
  const auto* production = dynamic_cast<const DcqcnPolicy*>(&net.policy());
  const auto* oracle = dynamic_cast<const DcqcnOracle*>(&net.policy());
  if (production == nullptr && oracle == nullptr) return {};
  for (const FlowId id : net.active_flows()) {
    const DcqcnPolicy::RpState s = production != nullptr
                                       ? production->rp_state(id)
                                       : oracle->rp_state(id);
    out.put_f64(s.current.bits_per_sec());
    out.put_f64(s.target.bits_per_sec());
    out.put_f64(s.alpha);
    out.put_u32(static_cast<std::uint32_t>(s.timer_rounds));
    out.put_u32(static_cast<std::uint32_t>(s.byte_rounds));
  }
  return out.take();
}

enum class Fabric {
  /// Long flows that never contend plus a short incast on one host link;
  /// once the incast drains, every flow is pinned and the fabric freezes.
  /// On the frozen fabric, one flow's source link browns out and recovers
  /// (its rate must climb back), then a second wave starts.
  kFrozen,
  /// A source host link down and up (park, then unpark) and a spine link
  /// down and up (reroute) while flows owe ticks.
  kParkUnpark,
  /// The transport replaced mid-run by a fresh instance of itself.
  kReplacePolicy,
  /// A JSONL bus bound mid-run (owed ticks meet the traced pass) and
  /// unbound again.
  kBusMidRun,
  /// The incast's source host links browned out to 90 % (at 1 ms, and
  /// restored at 30 ms): the survivor's line rate drops below the incast
  /// link's capacity, so the queue drains while it runs at line rate.
  /// Once it is pinned, a 50 kB flow joins the incast for one tick and
  /// leaves it with marks below one CNP's worth.
  kSlowSources,
};

/// DCQCN on a 4-ToR leaf-spine (50 Gbps hosts, 200 Gbps fabric, 2 spines),
/// untraced unless the shape binds a bus.  Eight long flows pair hosts
/// across ToRs with no link in common that could congest; two short,
/// aggressive flows incast into one host.  rp_state() of every flow, then
/// serialize_state(), is captured every 0.5 ms.
RunResult run_fabric(const MakePolicy& make_policy, bool observe,
                     Fabric shape) {
  const Topology topo =
      Topology::leaf_spine(4, 4, 2, Rate::gbps(50), Rate::gbps(200));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, make_policy(), cfg);
  net.attach(sim);

  RunResult result;
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out);
  bus.add_sink(sink);
  RateRecorder recorder;
  if (observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const auto start = [&](std::size_t src, std::size_t dst, double mb,
                         bool aggressive) {
    FlowSpec fs;
    fs.src = hosts[src];
    fs.dst = hosts[dst];
    fs.route = router.pick(fs.src, fs.dst, src * 31 + dst);
    fs.size = Bytes::of(mb * 1e6);
    if (aggressive) {
      fs.cc_timer = Duration::micros(55);
      fs.cc_rai = Rate::gbps(2);
    }
    net.start_flow(std::move(fs), [&result](const Flow&, TimePoint t) {
      result.finish_ms.push_back(t.since_origin().to_millis());
    });
  };
  const auto wave = [&](double scale) {
    for (std::size_t i = 0; i < 8; ++i) {
      start(i, (i + 4) % 16, scale * (24.0 + 4.0 * static_cast<double>(i)),
            false);
    }
    // The incast: the small flow finishes, the large one regains line
    // rate.
    start(12, 15, scale * 2.0, true);
    start(13, 15, scale * 40.0, true);
  };
  const auto at_ms = [&](double ms, std::function<void()> fn) {
    sim.schedule_at(TimePoint::origin() + Duration::micros(
                                              static_cast<int>(ms * 1000)),
                    std::move(fn));
  };
  const auto factor_at = [&](double ms, LinkId link, double factor) {
    at_ms(ms, [&net, link, factor] {
      net.set_link_capacity_factor(link, factor);
    });
  };

  switch (shape) {
    case Fabric::kFrozen: {
      const LinkId host2_up = router.pick(hosts[2], hosts[6], 0).links[0];
      factor_at(2.0, host2_up, 0.9);
      factor_at(3.1, host2_up, 1.0);
      at_ms(7.0, [&] { wave(0.5); });
      break;
    }
    case Fabric::kParkUnpark: {
      const LinkId host0_up = router.pick(hosts[0], hosts[4], 0).links[0];
      const LinkId spine_link = router.pick(hosts[1], hosts[5], 0).links[1];
      factor_at(3.3, host0_up, 0.0);
      factor_at(5.1, host0_up, 1.0);
      factor_at(6.2, spine_link, 0.0);
      factor_at(7.7, spine_link, 1.0);
      break;
    }
    case Fabric::kReplacePolicy:
      at_ms(4.7, [&] {
        result.lazy_ticks += lazy_ticks_of(net.policy());
        net.replace_policy(make_policy());
      });
      break;
    case Fabric::kBusMidRun:
      at_ms(4.3, [&] { net.set_trace_bus(&bus); });
      at_ms(5.9, [&] { net.set_trace_bus(nullptr); });
      break;
    case Fabric::kSlowSources:
      for (const std::size_t h : {12, 13}) {
        const LinkId uplink = router.pick(hosts[h], hosts[15], 0).links[0];
        factor_at(1.0, uplink, 0.9);
        factor_at(30.0, uplink, 1.0);
      }
      at_ms(6.5, [&] { start(14, 15, 0.05, false); });
      break;
  }
  for (int i = 1; i <= 60; ++i) {
    at_ms(0.5 * i, [&] {
      result.states.push_back(rp_states(net));
      result.states.push_back(net.policy().serialize_state());
    });
  }

  wave(1.0);
  sim.run_for(Duration::millis(40));
  result.states.push_back(net.policy().serialize_state());

  bus.flush();
  result.rates = recorder.samples();
  result.trace = trace_out.str();
  result.counters = bus.metrics_summary();
  result.lazy_ticks += lazy_ticks_of(net.policy());
  return result;
}

/// Production against its oracle on every leaf-spine shape, watched and
/// unwatched, each finishing at least `min_finished` flows; with `lazy`
/// (DCQCN), production must owe ticks in each.
void expect_fabric_matches_oracle(const MakePolicy& production,
                                  const MakePolicy& oracle, bool lazy,
                                  std::size_t min_finished = 10) {
  for (const Fabric shape :
       {Fabric::kFrozen, Fabric::kParkUnpark, Fabric::kReplacePolicy,
        Fabric::kBusMidRun, Fabric::kSlowSources}) {
    for (const bool observe : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "fabric " << static_cast<int>(shape)
                   << (observe ? ", watched" : ", unwatched"));
      const RunResult want = run_fabric(oracle, observe, shape);
      const RunResult got = run_fabric(production, observe, shape);
      ASSERT_GE(want.finish_ms.size(), min_finished);
      ASSERT_EQ(want.trace.empty(), shape != Fabric::kBusMidRun);
      if (lazy) {
        EXPECT_GT(got.lazy_ticks, 0u);
      }
      expect_bit_identical(want, got);
    }
  }
}

void expect_lazy_matches_oracle(const DcqcnConfig& cfg) {
  expect_fabric_matches_oracle(
      [&] { return std::make_unique<DcqcnPolicy>(cfg); },
      [&] { return std::make_unique<DcqcnOracle>(cfg); }, /*lazy=*/true);
}

template <typename Production, typename Oracle, typename Config>
void expect_fabric_matches_oracle(const Config& cfg,
                                  std::size_t min_finished = 10) {
  expect_fabric_matches_oracle(
      [&] { return std::make_unique<Production>(cfg); },
      [&] { return std::make_unique<Oracle>(cfg); }, /*lazy=*/false,
      min_finished);
}

// --- The burst loop against per-tick stepping -------------------------------

/// serialize_state() and the queue pass's link integrations, every 0.5 ms.
struct FloorRun {
  std::vector<std::string> states;
  std::vector<std::uint64_t> passes;
};

/// Two long flows share a dumbbell's bottleneck while pair 0's destination
/// host link browns out to 1e-4 (4.25 Mbps, below the 10 Mbps rate floor)
/// from 2 ms to 6 ms.  The flow's line rate never exceeds that link's
/// capacity, so only its rate bound, max(line, kRateFloor), puts the link
/// in the congestible set; the restore takes it back out.  `observe`
/// attaches an observer, so the network steps every tick through
/// update_rates; without it the ticks between events fuse into bursts.
FloorRun run_floor_brownout(const MakePolicy& make_policy, bool observe) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, make_policy(), cfg);
  net.attach(sim);
  RateRecorder recorder;
  if (observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const LinkId host_link = router.pick(hosts[0], hosts[1], 0).links[2];
  sim.schedule_at(TimePoint::origin() + Duration::millis(2), [&] {
    net.set_link_capacity_factor(host_link, 1e-4);
  });
  sim.schedule_at(TimePoint::origin() + Duration::millis(6), [&] {
    net.set_link_capacity_factor(host_link, 1.0);
  });
  FloorRun run;
  for (int i = 1; i <= 20; ++i) {
    sim.schedule_at(TimePoint::origin() + Duration::micros(500 * i), [&] {
      run.states.push_back(net.policy().serialize_state());
      run.passes.push_back(
          dynamic_cast<const QueuePassWork&>(net.policy()).queue_link_passes());
    });
  }
  for (int pair = 0; pair < 2; ++pair) {
    FlowSpec fs;
    fs.src = hosts[pair * 2];
    fs.dst = hosts[pair * 2 + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = Bytes::mega(200);  // outlasts the run
    fs.cc_timer = Duration::micros(pair == 0 ? 55 : 300);
    fs.cc_rai = Rate::mbps(pair == 0 ? 80 : 40);
    net.start_flow(std::move(fs));
  }
  sim.run_for(Duration::millis(10));
  EXPECT_EQ(net.active_flow_count(), 2u);
  return run;
}

/// The fused burst loop leaves the state per-tick stepping does, and both
/// integrate the floored host link only while it is browned out: two links
/// per tick (it and the bottleneck) inside the brownout, one after.
void expect_burst_matches_per_tick(const MakePolicy& make_policy) {
  const FloorRun fused = run_floor_brownout(make_policy, false);
  const FloorRun ticked = run_floor_brownout(make_policy, true);
  ASSERT_EQ(fused.states.size(), 20u);
  for (std::size_t i = 0; i < fused.states.size(); ++i) {
    EXPECT_EQ(fused.states[i], ticked.states[i]) << "sample " << i;
  }
  EXPECT_EQ(fused.passes, ticked.passes);
  constexpr std::uint64_t kTicks = 25;  // per 0.5 ms sample
  // Samples 5 -> 6 span 3.0-3.5 ms (browned out), 15 -> 16 span 8.0-8.5 ms.
  EXPECT_EQ(fused.passes[6] - fused.passes[5], 2 * kTicks);
  EXPECT_EQ(fused.passes[16] - fused.passes[15], kTicks);
}

// --- Cases -------------------------------------------------------------------

TEST(KernelParity, DcqcnMatchesOracle) {
  expect_matches_oracle<DcqcnPolicy, DcqcnOracle>(DcqcnConfig{});
}

TEST(KernelParity, DcqcnAdaptiveRaiMatchesOracle) {
  // adaptive_rai feeds flow progress into the increase step.
  DcqcnConfig cfg;
  cfg.adaptive_rai = true;
  expect_matches_oracle<DcqcnPolicy, DcqcnOracle>(cfg);
}

TEST(KernelParity, DcqcnRandomMarkingMatchesOracle) {
  // Bernoulli marks: the oracle's RNG must be drawn in production's order.
  DcqcnConfig cfg;
  cfg.deterministic_marking = false;
  expect_matches_oracle<DcqcnPolicy, DcqcnOracle>(cfg);
}

TEST(KernelParity, DcqcnLazyMatchesOracleOnFabric) {
  expect_lazy_matches_oracle(DcqcnConfig{});
}

TEST(KernelParity, DcqcnLazyAdaptiveAndRandomMatchOracleOnFabric) {
  DcqcnConfig adaptive;
  adaptive.adaptive_rai = true;
  expect_lazy_matches_oracle(adaptive);
  DcqcnConfig random;
  random.deterministic_marking = false;
  expect_lazy_matches_oracle(random);
}

TEST(KernelParity, DcqcnLazyPendingCnpMatchesOracleOnFabric) {
  // A 3 ms CNP interval holds a CNP back while marks pile up: under
  // kSlowSources the incast's survivor regains line rate, its queue drains,
  // and the held CNP fires on an unmarked tick.  emarks >= 1 must keep such
  // a flow out of the lazy path.
  DcqcnConfig cfg;
  cfg.cnp_interval = Duration::millis(3);
  expect_lazy_matches_oracle(cfg);
}

TEST(KernelParity, TimelyMatchesOracle) {
  expect_matches_oracle<TimelyPolicy, TimelyOracle>(TimelyConfig{});
}

TEST(KernelParity, TimelyPhaseScalingMatchesOracle) {
  TimelyConfig cfg;
  cfg.phase_scaling = true;
  expect_matches_oracle<TimelyPolicy, TimelyOracle>(cfg);
}

TEST(KernelParity, SwiftMatchesOracle) {
  expect_matches_oracle<SwiftPolicy, SwiftOracle>(SwiftConfig{});
}

TEST(KernelParity, SwiftJitterAndPhaseScalingMatchOracle) {
  SwiftConfig jitter;
  jitter.target_jitter_us = 8.0;
  expect_matches_oracle<SwiftPolicy, SwiftOracle>(jitter);
  SwiftConfig both = jitter;
  both.phase_scaling = true;
  expect_matches_oracle<SwiftPolicy, SwiftOracle>(both);
}

TEST(KernelParity, BbrMatchesOracle) {
  expect_matches_oracle<BbrPolicy, BbrOracle>(BbrConfig{});
  BbrConfig reseeded;
  reseeded.seed = 7;
  expect_matches_oracle<BbrPolicy, BbrOracle>(reseeded);
}

/// A table that reaches every rule on the contests: RTT bands, a rising
/// gradient, marked routes, and an additive default.
TableConfig test_table(double explore) {
  std::istringstream in(
      "ccml-cc-table v1\n"
      "cadence_us 30\n"
      "bins rtt_us 40 80\n"
      "bins gradient 0\n"
      "bins ecn 0.05\n"
      "rule 2 * * * 0.7\n"
      "rule * * 1 * 0.85\n"
      "rule * 1 * * 0.95 1\n"
      "rule 0 * 0 * 1.05 5\n"
      "default 1.0 2\n");
  TableConfig cfg;
  cfg.table = CcPolicyTable::parse(in);
  cfg.explore = explore;
  return cfg;
}

TEST(KernelParity, TableMatchesOracle) {
  expect_matches_oracle<TablePolicy, TableOracle>(test_table(0.0));
}

TEST(KernelParity, TableExploreMatchesOracle) {
  expect_matches_oracle<TablePolicy, TableOracle>(test_table(0.1));
}

// The rate machines on DCQCN's leaf-spine shapes: park/unpark and reroute
// move flows between links, so each rebuilds its congestible set.
TEST(KernelParity, RateMachinesMatchOracleOnFabric) {
  expect_fabric_matches_oracle<TimelyPolicy, TimelyOracle>(TimelyConfig{});
  expect_fabric_matches_oracle<SwiftPolicy, SwiftOracle>(SwiftConfig{});
  expect_fabric_matches_oracle<BbrPolicy, BbrOracle>(BbrConfig{});
  // The table's small additive steps recover slowly on the fabric: fewer
  // of its flows finish inside the 40 ms.
  expect_fabric_matches_oracle<TablePolicy, TableOracle>(test_table(0.0), 1);
}

TEST(KernelParity, TimelyBurstMatchesPerTickAcrossFloorBrownout) {
  expect_burst_matches_per_tick([] { return std::make_unique<TimelyPolicy>(); });
}

TEST(KernelParity, SwiftBurstMatchesPerTickAcrossFloorBrownout) {
  expect_burst_matches_per_tick([] { return std::make_unique<SwiftPolicy>(); });
}

TEST(KernelParity, BbrBurstMatchesPerTickAcrossFloorBrownout) {
  expect_burst_matches_per_tick([] { return std::make_unique<BbrPolicy>(); });
}

TEST(KernelParity, TableBurstMatchesPerTickAcrossFloorBrownout) {
  expect_burst_matches_per_tick(
      [] { return std::make_unique<TablePolicy>(test_table(0.0)); });
}

}  // namespace
}  // namespace ccml
