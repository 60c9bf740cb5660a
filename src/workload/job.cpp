#include "workload/job.h"

#include "ckpt/snapshot.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/trace_bus.h"

namespace ccml {

TrainingJob::TrainingJob(Simulator& sim, Network& net, JobSpec spec)
    : sim_(sim),
      net_(net),
      spec_(std::move(spec)),
      jitter_rng_(spec_.jitter_seed + 0x5bd1e995u) {
  phases_ = spec_.profile.iteration_phases();
  validate_spec();
}

void TrainingJob::validate_spec() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("job '" + spec_.name + "': " + what);
  };
  if (spec_.paths.empty()) fail("needs at least one network path");
  for (std::size_t i = 0; i < spec_.paths.size(); ++i) {
    if (spec_.paths[i].route.links.empty()) {
      fail("path " + std::to_string(i) + " has an empty route");
    }
  }
  if (phases_.empty()) fail("profile yields no iteration phases");
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].compute.is_negative()) {
      fail("phase " + std::to_string(i) + " has negative compute time");
    }
    if (phases_[i].comm < Bytes::zero()) {
      fail("phase " + std::to_string(i) + " has negative comm bytes");
    }
  }
  if (spec_.max_iterations < 0) fail("max_iterations must be >= 0");
  if (spec_.weight <= 0.0) fail("weight must be positive");
  if (spec_.compute_jitter.is_negative()) {
    fail("compute_jitter must be non-negative");
  }
  if (spec_.gate) {
    const CommGate& g = *spec_.gate;
    if (!g.period.is_positive()) fail("gate period must be positive");
    if (g.window.is_negative()) fail("gate window must be non-negative");
    if (g.window > g.period) {
      fail("gate window exceeds the gate period (window " +
           std::to_string(g.window.to_micros()) + " us > period " +
           std::to_string(g.period.to_micros()) + " us)");
    }
  }
}

TrainingJob::~TrainingJob() {
  destroyed_guard_ = true;
  for (const FlowId fid : live_flows_) {
    net_.abort_flow(fid);
  }
}

void TrainingJob::start() {
  assert(phase_ == Phase::kIdle);
  pending_event_ = sim_.schedule_at(spec_.start, [this] {
    pending_event_ = kInvalidEventId;
    begin_iteration(sim_.now());
  });
}

void TrainingJob::set_compute_scale(double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("job '" + spec_.name +
                                "': compute scale must be positive");
  }
  compute_scale_ = scale;
}

void TrainingJob::set_gate(std::optional<CommGate> gate) {
  if (gate && !gate->period.is_positive()) {
    throw std::invalid_argument("job '" + spec_.name +
                                "': gate period must be positive");
  }
  spec_.gate = std::move(gate);
  if (phase_ == Phase::kWaitingGate) {
    // Re-evaluate the wait against the new schedule (or launch immediately
    // when the gate was removed).
    cancel_pending();
    on_compute_done();
  }
}

void TrainingJob::pause() {
  if (phase_ == Phase::kPaused || phase_ == Phase::kDone) return;
  paused_phase_ = phase_;
  cancel_pending();
  abort_live_flows();
  phase_ = Phase::kPaused;
  trace_phase("paused", sim_.now());
}

void TrainingJob::resume() {
  if (phase_ != Phase::kPaused) return;
  const TimePoint now = sim_.now();
  switch (paused_phase_) {
    case Phase::kIdle:
      // Paused before the first iteration; re-arm the start timer.
      phase_ = Phase::kIdle;
      if (spec_.start > now) {
        pending_event_ = sim_.schedule_at(spec_.start, [this] {
          pending_event_ = kInvalidEventId;
          begin_iteration(sim_.now());
        });
      } else {
        begin_iteration(now);
      }
      break;
    case Phase::kComputing:
      // The interrupted compute phase restarts from its beginning.
      begin_phase(now);
      break;
    case Phase::kWaitingGate:
    case Phase::kCommunicating:
      // Aborted transfers are requeued in full; the gate is re-evaluated.
      on_compute_done();
      break;
    case Phase::kPaused:
    case Phase::kDone:
      assert(false && "unreachable paused phase");
      break;
  }
}

void TrainingJob::stop() {
  if (phase_ == Phase::kDone) return;
  cancel_pending();
  abort_live_flows();
  phase_ = Phase::kDone;
  trace_phase("done", sim_.now());
}

void TrainingJob::trace_phase(const char* name, TimePoint t, double value) {
  TraceBus* bus = net_.trace_bus();
  if (bus == nullptr) return;
  TraceEvent ev;
  ev.time = t;
  ev.kind = TraceEventKind::kPhase;
  ev.job = spec_.id;
  ev.value = value;
  ev.detail = name;
  bus->emit(ev);
}

void TrainingJob::cancel_pending() {
  if (pending_event_ != kInvalidEventId) {
    sim_.cancel(pending_event_);
    pending_event_ = kInvalidEventId;
  }
}

void TrainingJob::abort_live_flows() {
  for (const FlowId fid : live_flows_) {
    net_.abort_flow(fid);
  }
  live_flows_.clear();
  flows_in_flight_ = 0;
}

void TrainingJob::begin_iteration(TimePoint t) {
  iter_start_ = t;
  iteration_starts_.push_back(t);
  phase_index_ = 0;
  begin_phase(t);
}

void TrainingJob::begin_phase(TimePoint t) {
  phase_ = Phase::kComputing;
  Duration compute = phases_[phase_index_].compute;
  if (compute_scale_ != 1.0) compute = compute * compute_scale_;
  if (spec_.compute_jitter.is_positive() && compute.is_positive()) {
    const double noise =
        jitter_rng_.gaussian(0.0, spec_.compute_jitter.to_seconds());
    compute += Duration::from_seconds_f(noise);
    if (compute.is_negative()) compute = Duration::zero();
  }
  trace_phase("compute", t, compute.to_millis());
  if (compute.is_positive()) {
    // `t` may sit slightly before the simulator clock (interpolated flow
    // completion inside the previous step); the compute deadline is measured
    // from `t` so iteration accounting stays exact.
    TimePoint deadline = t + compute;
    if (deadline < sim_.now()) deadline = sim_.now();
    pending_event_ = sim_.schedule_at(deadline, [this] {
      pending_event_ = kInvalidEventId;
      on_compute_done();
    });
  } else {
    on_compute_done();
  }
}

void TrainingJob::on_compute_done() {
  const TimePoint now = sim_.now();
  if (spec_.gate) {
    // Central flow scheduling: wait for the next admitted slot.
    const CommGate& g = *spec_.gate;
    const Duration offset = phase_index_ < g.phase_offsets.size()
                                ? g.phase_offsets[phase_index_]
                                : g.offset;
    TimePoint slot = g.epoch + offset;
    if (slot < now) {
      // Most recent slot at or before `now`; admit immediately when still
      // inside its guard window, otherwise wait for the next slot.
      const Duration behind = now - slot;
      const std::int64_t k_floor = behind.ns() / g.period.ns();
      const TimePoint current = slot + g.period * k_floor;
      if (now - current <= g.window) {
        slot = current;  // in-window: current slot admits us now
      } else {
        slot = current + g.period;
      }
    }
    if (slot > now) {
      phase_ = Phase::kWaitingGate;
      trace_phase("gate-wait", now, (slot - now).to_millis());
      pending_event_ = sim_.schedule_at(slot, [this, wait_from = now] {
        pending_event_ = kInvalidEventId;
        if (TraceBus* bus = net_.trace_bus()) {
          TraceEvent ev;
          ev.time = sim_.now();
          ev.kind = TraceEventKind::kGateOpen;
          ev.job = spec_.id;
          ev.value = (sim_.now() - wait_from).to_millis();
          bus->emit(ev);
          bus->counter("jobs.gate_waits").add();
        }
        launch_comm_phase(sim_.now());
      });
      return;
    }
  }
  launch_comm_phase(now);
}

void TrainingJob::launch_comm_phase(TimePoint t) {
  phase_ = Phase::kCommunicating;
  const Bytes phase_bytes = phases_[phase_index_].comm;
  trace_phase("comm", t, phase_bytes.count() / 1e6);
  if (!phase_bytes.is_positive()) {
    phase_done(t);
    return;
  }
  const Bytes per_path =
      spec_.split_bytes
          ? phase_bytes * (1.0 / static_cast<double>(spec_.paths.size()))
          : phase_bytes;
  flows_in_flight_ = spec_.paths.size();
  last_flow_finish_ = t;
  live_flows_.clear();
  for (const JobPath& path : spec_.paths) {
    FlowSpec fs;
    fs.src = path.src;
    fs.dst = path.dst;
    fs.route = path.route;
    fs.size = per_path;
    fs.job = spec_.id;
    fs.priority = spec_.priority;
    fs.weight = spec_.weight;
    fs.label = spec_.name;
    fs.cc_timer = spec_.cc_timer;
    fs.cc_rai = spec_.cc_rai;
    const FlowId fid = net_.start_flow(
        std::move(fs),
        [this](const Flow& flow, TimePoint finish) {
          if (destroyed_guard_) return;
          std::erase(live_flows_, flow.id);
          on_flow_complete(finish);
        });
    live_flows_.push_back(fid);
  }
}

void TrainingJob::on_flow_complete(TimePoint finish) {
  assert(flows_in_flight_ > 0);
  if (finish > last_flow_finish_) last_flow_finish_ = finish;
  if (--flows_in_flight_ == 0) {
    phase_done(last_flow_finish_);
  }
}

void TrainingJob::phase_done(TimePoint t) {
  if (phase_index_ + 1 < phases_.size()) {
    ++phase_index_;
    begin_phase(t);
  } else {
    finish_iteration(t);
  }
}

void TrainingJob::finish_iteration(TimePoint t) {
  const Duration iter = t - iter_start_;
  iteration_times_.push_back(iter);
  if (TraceBus* bus = net_.trace_bus()) {
    TraceEvent ev;
    ev.time = t;
    ev.kind = TraceEventKind::kIteration;
    ev.job = spec_.id;
    ev.value = iter.to_millis();
    ev.value2 = static_cast<double>(iteration_times_.size() - 1);
    bus->emit(ev);
    bus->counter("jobs.iterations").add();
  }
  if (on_iteration) on_iteration(iteration_times_.size() - 1, iter);
  if (spec_.max_iterations > 0 &&
      iteration_times_.size() >=
          static_cast<std::size_t>(spec_.max_iterations)) {
    phase_ = Phase::kDone;
    trace_phase("done", t);
    if (on_done) on_done(*this);
    return;
  }
  // The interpolated finish `t` may precede the simulator clock (flows end
  // mid-step); account the next iteration from `t` but schedule work now.
  begin_iteration(t);
}

std::string TrainingJob::serialize_state() const {
  StateBuf out;
  out.put_u8(static_cast<std::uint8_t>(phase_));
  out.put_u8(static_cast<std::uint8_t>(paused_phase_));
  out.put_u64(phase_index_);
  out.put_i64(iter_start_.since_origin().ns());
  out.put_u64(flows_in_flight_);
  out.put_i64(last_flow_finish_.since_origin().ns());
  out.put_u64(live_flows_.size());
  for (const FlowId id : live_flows_) out.put_i64(id.value);
  out.put_u64(iteration_times_.size());
  for (const Duration d : iteration_times_) out.put_i64(d.ns());
  out.put_u64(iteration_starts_.size());
  for (const TimePoint t : iteration_starts_) {
    out.put_i64(t.since_origin().ns());
  }
  out.put_f64(compute_scale_);
  out.put_u8(pending_event_ != kInvalidEventId ? 1 : 0);
  out.put_bytes(jitter_rng_.save_state());
  return out.take();
}

}  // namespace ccml
