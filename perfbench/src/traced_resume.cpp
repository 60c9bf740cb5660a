// traced-resume: Table-1 group 5 under DCQCN with the unfair ladder, traced
// the way `ccml_sim scenario --trace ... --health-report` traces it — an
// AnalyticsEngine chained to a JsonlSink at the CLI's 5 ms link cadence —
// and checkpointed on a fixed simulated-time cadence.  The JSONL goes to an
// in-memory byte counter instead of a file, so trace formatting and
// analytics (obs) are measured without disk noise.  Each pass then resumes
// the run from its middle snapshot in replay-verify mode (ckpt) and checks
// the continuation against the uninterrupted recording.
#include <ostream>

#include "ckpt/checkpoint.h"
#include "cluster/scenario.h"
#include "obs/analytics/engine.h"
#include "obs/sinks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccml;

constexpr double kRunSeconds = 60.0;
constexpr int kSnapshots = 6;     // checkpoint cadence = run / kSnapshots
constexpr int kResumeFrom = 3;    // the middle snapshot
constexpr std::uint64_t kMaxOffsetMs = 250;
const std::pair<const char*, int> kJobs[] = {
    {"VGG19", 1400}, {"VGG16", 1700}, {"ResNet50", 1600}};

/// One traced run's sink chain: bus -> engine -> JSONL -> byte counter,
/// optionally with a MeteredSink around the engine (parent span) and around
/// the JSONL sink (child span).
struct TracedRun {
  TracedRun(const AnalyticsConfig& acfg, Duration cadence, bool metered,
            std::uint64_t hash_from)
      : buf(hash_from),
        stream(&buf),
        jsonl(stream, JsonlSinkOptions{cadence}),
        engine(acfg),
        child(&jsonl, &buf),
        parent(&engine, nullptr) {
    engine.set_output(metered ? static_cast<TraceSink*>(&child) : &jsonl);
    bus.add_sink(metered ? static_cast<TraceSink&>(parent) : engine);
  }

  ByteCountingBuf buf;
  std::ostream stream;
  JsonlSink jsonl;
  AnalyticsEngine engine;
  MeteredSink child;
  MeteredSink parent;
  TraceBus bus;
};

class TracedResume final : public Workload {
 public:
  explicit TracedResume(std::string workdir) : workdir_(std::move(workdir)) {}

  void setup(std::uint64_t seed, double scale) override {
    jobs_.clear();
    for (std::size_t i = 0; i < std::size(kJobs); ++i) {
      ScenarioJob job;
      job.name = std::string(kJobs[i].first) + "(" +
                 std::to_string(kJobs[i].second) + ")";
      job.profile = *ModelZoo::calibrated(kJobs[i].first, kJobs[i].second);
      const Aggressiveness knobs = ranked_knobs(static_cast<int>(i));
      job.cc_timer = knobs.timer;
      job.cc_rai = knobs.rai;
      job.start_offset = Duration::millis(
          static_cast<std::int64_t>(mix_seed(seed, i) % kMaxOffsetMs));
      jobs_.push_back(std::move(job));
    }
    config_ = ScenarioConfig{};
    config_.policy = PolicyKind::kDcqcn;
    config_.duration = Duration::from_seconds_f(kRunSeconds * scale);
    analytics_ = AnalyticsConfig{};
    analytics_.sample_cadence = kCliCadence;
    ckpt_.every = Duration::from_seconds_f(kRunSeconds * scale / kSnapshots);
    ckpt_.dir = workdir_;
    ckpt_.run_spec = "perfbench traced-resume seed=" + std::to_string(seed) +
                     " scale=" + std::to_string(scale);
    ckpt_.mode = CheckpointCoordinator::Mode::kRecord;
  }

  PassOutput run(bool probed) override {
    PassOutput out;
    auto& L = out.layers;
    const double sim_s = config_.duration.to_seconds();

    // --- Recording run -----------------------------------------------------
    TracedRun rec(analytics_, kCliCadence, probed, ByteCountingBuf::kNever);
    CheckpointCoordinator ck(ckpt_);
    int ticks = 0;
    std::uint64_t cursor_bytes = 0;
    ck.set_trace_bytes_fn([&] {
      if (++ticks == kResumeFrom) {
        rec.buf.hash_from_here();
        cursor_bytes = rec.buf.bytes();
      }
      return rec.buf.bytes();
    });
    ScenarioConfig cfg = config_;
    cfg.trace = &rec.bus;
    cfg.checkpoint = &ck;
    out.runs = 2;  // the recording and its resume
    ScenarioResult recorded;
    const CallTimer record_timer;
    try {
      recorded = run_dumbbell_scenario(jobs_, cfg);
      rec.bus.flush();
    } catch (const std::exception& e) {
      // Without a recording there is nothing to resume: both runs fail.
      ++out.failed;
      return fail(std::move(out), std::string("recording: ") + e.what());
    }
    out.calls.push_back(record_timer.stop(sim_s));
    const CallTimer report_timer;
    const RunHealthReport health = rec.engine.report();
    out.calls.push_back(report_timer.stop(0.0));
    const double record_s = out.calls[0].wall_s;
    const double report_s = out.calls[1].wall_s;
    out.digest = scenario_fingerprint(recorded) + "\nhealth " +
                 hex64(fnv1a(health.json)) + "\ntrace " +
                 std::to_string(rec.buf.bytes()) + " bytes, after cursor " +
                 hex64(rec.buf.hash()) + "\n";
    L["trace_bytes_per_sim_s"] = static_cast<double>(rec.buf.bytes()) / sim_s;
    L["ckpt.snapshots"] = static_cast<double>(ck.snapshots_taken());
    add_bus_counters(rec.bus, L);
    if (probed) {
      const double engine_s = rec.parent.busy_s();
      L["trace.events"] = static_cast<double>(rec.parent.events());
      L["obs.jsonl_s"] = rec.child.busy_s();
      L["obs.analytics_self_s"] = engine_s - rec.child.busy_s();
      L["obs.report_s"] = report_s;
      L["obs.events"] = static_cast<double>(rec.child.events());
      L["obs.bytes"] = static_cast<double>(rec.buf.bytes());
      L["obs.ns_per_event"] =
          rec.child.events() > 0 ? 1e9 * engine_s / rec.child.events() : 0.0;
      for (const TraceEventKind kind :
           {TraceEventKind::kRateTimer, TraceEventKind::kRateDecrease,
            TraceEventKind::kLinkThroughput, TraceEventKind::kLinkQueue}) {
        L[std::string("obs.events.") + to_string(kind)] =
            static_cast<double>(rec.child.events_of(kind));
        L[std::string("obs.bytes.") + to_string(kind)] =
            static_cast<double>(rec.child.bytes_of(kind));
      }
      L["obs.share_of_record"] = engine_s / record_s;
      L["cluster.scenario_self_s"] = record_s - engine_s;
      L["ckpt.snapshot_bytes"] = rec.child.snapshot_bytes();
    }

    // --- Resume from the middle snapshot, replay-verify ----------------------
    try {
      const CallTimer resume_timer;
      const Clock::time_point l0 = Clock::now();
      Snapshot target = Snapshot::load(workdir_ + "/ckpt_" +
                                       std::to_string(kResumeFrom) + ".ccml");
      const auto cursor = CheckpointCoordinator::read_cursor(target);
      const double load_s = seconds_between(l0, Clock::now());
      if (cursor.trace_bytes != cursor_bytes) {
        return fail(std::move(out), "snapshot cursor byte offset differs from "
                                    "the recording's");
      }
      CheckpointCoordinator::Options opts = ckpt_;
      opts.mode = CheckpointCoordinator::Mode::kReplayVerify;
      opts.target = std::move(target);
      opts.target_seq = cursor.seq;
      CheckpointCoordinator resume_ck(std::move(opts));
      TracedRun res(analytics_, kCliCadence, false, cursor.trace_bytes);
      resume_ck.set_trace_bytes_fn([&res] { return res.buf.bytes(); });
      ScenarioConfig rcfg = config_;
      rcfg.trace = &res.bus;
      rcfg.checkpoint = &resume_ck;
      Clock::time_point at_cursor{};
      rcfg.on_cursor = [&at_cursor](Simulator&, Network&) {
        at_cursor = Clock::now();
      };
      const Clock::time_point r0 = Clock::now();
      const ScenarioResult resumed = run_dumbbell_scenario(jobs_, rcfg);
      res.bus.flush();
      const Clock::time_point r1 = Clock::now();
      out.calls.push_back(resume_timer.stop(0.0));
      if (!resume_ck.verified()) {
        return fail(std::move(out), "resume never verified its cursor");
      }
      if (res.buf.bytes() != rec.buf.bytes() ||
          res.buf.hash() != rec.buf.hash()) {
        return fail(std::move(out), "resumed JSONL differs from the recording "
                                    "after the cursor");
      }
      if (res.engine.report().json != health.json ||
          scenario_fingerprint(resumed) != scenario_fingerprint(recorded)) {
        return fail(std::move(out), "resumed run reports differ");
      }
      if (!probed) {
        L["ckpt.load_s"] = load_s;
        L["ckpt.replay_to_cursor_s"] = seconds_between(r0, at_cursor);
        L["ckpt.after_cursor_s"] = seconds_between(at_cursor, r1);
        L["resume_s"] = load_s + seconds_between(r0, r1);
      }
    } catch (const std::exception& e) {
      return fail(std::move(out), std::string("resume: ") + e.what());
    }
    return out;
  }

 private:
  static constexpr Duration kCliCadence = Duration::millis(5);

  static PassOutput fail(PassOutput out, std::string why) {
    ++out.failed;
    out.errors.push_back(std::move(why));
    out.digest += "FAILED\n";
    return out;
  }

  std::string workdir_;
  std::vector<ScenarioJob> jobs_;
  ScenarioConfig config_;
  AnalyticsConfig analytics_;
  CheckpointCoordinator::Options ckpt_;
};

}  // namespace

std::unique_ptr<Workload> make_traced_resume(std::string workdir) {
  return std::make_unique<TracedResume>(std::move(workdir));
}

}  // namespace perfbench
