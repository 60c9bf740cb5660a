// Streaming analytics tests: the online (bus-subscribed) and offline
// (`ccml_sim analyze` replay) paths must produce byte-identical run-health
// reports; reports must be deterministic across runs, sweep thread counts,
// and sync-vs-async delivery; the measured interleaving must agree with the
// solver's prediction on a gated dumbbell; and each anomaly detector must
// fire on a synthetic stream built to trip it while staying silent on
// healthy runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "obs/analytics/engine.h"
#include "obs/analytics/trace_reader.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/sweep.h"
#include "workload/model_zoo.h"

namespace ccml {
namespace {

std::vector<ScenarioJob> toy_jobs() {
  const JobProfile p = ModelZoo::synthetic(
      "toy", Duration::millis(20), Rate::gbps(40) * Duration::millis(10));
  return {{"J1", p}, {"J2", p}};
}

struct TracedRun {
  std::string jsonl;
  std::string report;
  std::uint64_t anomalies = 0;
};

/// Runs a dumbbell scenario with the AnalyticsEngine chained in front of a
/// JsonlSink (the same wiring `ccml_sim --health-report --trace` uses) and
/// returns the serialized trace plus the rendered report.
TracedRun run_traced(const std::vector<ScenarioJob>& jobs, ScenarioConfig cfg,
                     bool async_block = false) {
  std::ostringstream out;
  JsonlSink sink(out);
  AnalyticsEngine engine;
  engine.set_output(&sink);
  TraceBus bus;
  bus.add_sink(engine);
  if (async_block) bus.start_async({});
  cfg.trace = &bus;
  run_dumbbell_scenario(jobs, cfg);
  bus.flush();
  TracedRun r;
  r.jsonl = out.str();
  r.report = engine.report().json;
  r.anomalies = engine.anomalies().size();
  return r;
}

/// Replays a JSONL trace through a fresh engine — the `ccml_sim analyze`
/// code path — and returns its report.
std::string analyze_offline(const std::string& jsonl) {
  AnalyticsEngine engine;
  std::istringstream in(jsonl);
  TraceReplayStats stats;
  std::string error;
  EXPECT_TRUE(replay_trace_jsonl(in, engine, stats, &error)) << error;
  engine.flush();
  return engine.report().json;
}

TEST(Analytics, OnlineEqualsOfflineByteForByte) {
  ScenarioConfig cfg;
  cfg.duration = Duration::millis(400);
  cfg.warmup_iterations = 0;
  const TracedRun run = run_traced(toy_jobs(), cfg);
  ASSERT_FALSE(run.jsonl.empty());
  // The trace carries the engine's own derived events (histogram-summary at
  // least); the replay must skip and re-derive them, not double-count.
  EXPECT_NE(run.jsonl.find("histogram-summary"), std::string::npos);
  EXPECT_EQ(analyze_offline(run.jsonl), run.report);
}

TEST(Analytics, ReportDeterministicAcrossRunsAndSweepThreads) {
  const auto one = [](std::size_t) {
    ScenarioConfig cfg;
    cfg.duration = Duration::millis(300);
    cfg.warmup_iterations = 0;
    return run_traced(toy_jobs(), cfg).report;
  };
  const std::string baseline = one(0);
  EXPECT_EQ(one(1), baseline);  // same inputs, same bytes

  for (const unsigned threads : {1u, 3u}) {
    SweepOptions sw;
    sw.threads = threads;
    SweepRunner pool(sw);
    const std::vector<double> grid = {0, 1, 2};
    const auto results =
        pool.run(grid, [&](double, std::size_t i) { return one(i); });
    for (const std::string& r : results) {
      EXPECT_EQ(r, baseline) << threads << " threads";
    }
  }
}

TEST(Analytics, SyncAndAsyncBlockAreIdentical) {
  ScenarioConfig cfg;
  cfg.duration = Duration::millis(300);
  cfg.warmup_iterations = 0;
  const TracedRun sync = run_traced(toy_jobs(), cfg);
  const TracedRun async = run_traced(toy_jobs(), cfg, /*async_block=*/true);
  EXPECT_EQ(async.jsonl, sync.jsonl);
  EXPECT_EQ(async.report, sync.report);
}

TEST(Analytics, MeasuredInterleavingMatchesSolverPrediction) {
  // Two identical Table-1 DLRM jobs on the dumbbell are compatible; with the
  // CASSINI-style flow schedule the solver gates them and the *measured*
  // comm overlap must agree with its compatible-geometry prediction.
  const auto profile = ModelZoo::calibrated("DLRM", 2000);
  ASSERT_TRUE(profile.has_value());
  std::vector<ScenarioJob> jobs = {{"A", *profile}, {"B", *profile}};
  ScenarioConfig cfg;
  cfg.duration = Duration::seconds(6);
  cfg.flow_schedule = true;

  AnalyticsEngine engine;
  TraceBus bus;
  bus.add_sink(engine);
  cfg.trace = &bus;
  run_dumbbell_scenario(jobs, cfg);
  bus.flush();

  const auto& g = engine.interleaving().global();
  ASSERT_GT(g.busy_ns, 0);
  const double overlap_fraction =
      static_cast<double>(g.overlap_ns) / static_cast<double>(g.busy_ns);
  // Solver said compatible (violation 0) => nearly disjoint comm phases.
  EXPECT_LE(overlap_fraction, 0.10);
  EXPECT_GE(g.score(), 0.90);
  const std::string json = engine.report().json;
  EXPECT_NE(json.find("\"predicted_compatible\": 1"), std::string::npos);
  // A healthy gated run must not raise anomalies.
  EXPECT_EQ(engine.anomalies().size(), 0u);
}

TEST(Analytics, PhaseDriftFiresWhenScheduleGoesStale) {
  // A brownout mid-run makes the start-of-run flow schedule stale: comm
  // phases stretch past their slots and start overlapping, which is exactly
  // the condition the drift detector arms on (interleaving established)
  // and then fires on (overlap past the threshold).
  const auto profile = ModelZoo::calibrated("DLRM", 2000);
  ASSERT_TRUE(profile.has_value());
  std::vector<ScenarioJob> jobs = {{"A", *profile}, {"B", *profile}};
  const auto run_once = [&] {
    ScenarioConfig cfg;
    cfg.duration = Duration::seconds(10);
    cfg.flow_schedule = true;
    cfg.faults.brownout(TimePoint::origin() + Duration::seconds(3),
                        Duration::seconds(4), "swL->swR", 0.3);
    return run_traced(jobs, cfg);
  };
  const TracedRun a = run_once();
  EXPECT_NE(a.report.find("anomaly.phase_drift"), std::string::npos);
  EXPECT_GE(a.anomalies, 1u);
  // Deterministic: the whole trace and report reproduce byte-for-byte.
  const TracedRun b = run_once();
  EXPECT_EQ(b.jsonl, a.jsonl);
  EXPECT_EQ(b.report, a.report);
  // And the offline replay of the fault trace re-derives the same report.
  EXPECT_EQ(analyze_offline(a.jsonl), a.report);
}

// --- Synthetic streams for the remaining detectors -------------------------

TraceEvent ev_at(Duration t, TraceEventKind kind) {
  TraceEvent ev;
  ev.time = TimePoint::origin() + t;
  ev.kind = kind;
  return ev;
}

TEST(Analytics, StarvationDetectedAfterQuietGap) {
  AnalyticsEngine engine;
  // Job 0 iterates steadily at 100 ms...
  for (int i = 1; i <= 4; ++i) {
    TraceEvent it = ev_at(Duration::millis(100 * i), TraceEventKind::kIteration);
    it.job = JobId{0};
    it.value = 100.0;
    engine.on_event(it);
  }
  // ...then goes quiet while the rest of the system keeps producing events.
  // The gap must exceed IterationAnalyzer::kStarvationFactor (8) * median
  // (100 ms).
  TraceEvent q = ev_at(Duration::millis(1300), TraceEventKind::kLinkQueue);
  q.link = LinkId{0};
  engine.on_event(q);  // gap 900 ms: above 8 * 100 => fires
  ASSERT_EQ(engine.anomalies().size(), 1u);
  EXPECT_EQ(engine.anomalies()[0].kind, TraceEventKind::kAnomalyStarvation);
  EXPECT_EQ(engine.anomalies()[0].job.value, 0);

  // Flagged once per episode: more quiet time, no duplicate event.
  q.time = TimePoint::origin() + Duration::millis(2000);
  engine.on_event(q);
  EXPECT_EQ(engine.anomalies().size(), 1u);

  // An iteration ends the episode; a fresh gap fires again.
  TraceEvent it = ev_at(Duration::millis(2100), TraceEventKind::kIteration);
  it.job = JobId{0};
  it.value = 100.0;
  engine.on_event(it);
  q.time = TimePoint::origin() + Duration::millis(3200);
  engine.on_event(q);
  EXPECT_EQ(engine.anomalies().size(), 2u);
}

TEST(Analytics, QueueOscillationDetectedAndCoolsDown) {
  AnalyticsEngine engine;
  const double hi = 512.0 * 1024.0;
  int fired_at = -1;
  // A sawtooth on link 3: full-amplitude reversals every 5 ms.  Every
  // reversal qualifies (amplitude >= max(64 KiB, 0.5 * peak)); the 12th
  // within 250 ms fires the anomaly and clears the swing window.
  for (int i = 0; i < 40; ++i) {
    TraceEvent q = ev_at(Duration::millis(5 * (i + 1)),
                         TraceEventKind::kLinkQueue);
    q.link = LinkId{3};
    q.value = (i % 2 == 0) ? hi : 0.0;
    engine.on_event(q);
    if (fired_at < 0 && !engine.anomalies().empty()) fired_at = i;
  }
  ASSERT_GE(engine.queues().oscillation_events(), 1u);
  EXPECT_EQ(engine.anomalies()[0].kind,
            TraceEventKind::kAnomalyQueueOscillation);
  EXPECT_EQ(engine.anomalies()[0].link.value, 3);
  // The cooldown (cleared window) spaces repeat detections out: 40 samples
  // hold at most ~2 full 12-swing windows.
  EXPECT_LE(engine.anomalies().size(), 3u);

  // A monotone ramp never fires, whatever its size.
  AnalyticsEngine ramp;
  for (int i = 0; i < 40; ++i) {
    TraceEvent q = ev_at(Duration::millis(5 * (i + 1)),
                         TraceEventKind::kLinkQueue);
    q.link = LinkId{3};
    q.value = static_cast<double>(i) * hi;
    ramp.on_event(q);
  }
  EXPECT_EQ(ramp.anomalies().size(), 0u);
}

TEST(Analytics, CongestionCollapseDetected) {
  AnalyticsEngine engine;
  // Establish a healthy goodput peak (~40 Gbps windows), then crater the
  // link to 2 Gbps while its queue stays deep: windowed goodput below
  // FairnessAnalyzer::kCollapseRatio (0.25) of the peak with a standing
  // queue => collapse.
  const auto sample = [&](int ms, double bps, double queue_bytes) {
    TraceEvent tp = ev_at(Duration::millis(ms), TraceEventKind::kLinkThroughput);
    tp.link = LinkId{1};
    tp.value = bps;
    engine.on_event(tp);
    TraceEvent q = ev_at(Duration::millis(ms), TraceEventKind::kLinkQueue);
    q.link = LinkId{1};
    q.value = queue_bytes;
    engine.on_event(q);
  };
  for (int ms = 5; ms <= 300; ms += 5) sample(ms, 40e9, 1000.0);
  for (int ms = 305; ms <= 600; ms += 5) sample(ms, 2e9, 512.0 * 1024.0);
  engine.flush();
  ASSERT_GE(engine.fairness().collapse_events(), 1u);
  bool saw = false;
  for (const TraceEvent& a : engine.anomalies()) {
    if (a.kind == TraceEventKind::kAnomalyCongestionCollapse) {
      saw = true;
      EXPECT_EQ(a.link.value, 1);
      EXPECT_LT(a.value, 0.25 * a.value2);  // goodput below ratio * peak
    }
  }
  EXPECT_TRUE(saw);
}

// --- Report plumbing --------------------------------------------------------

TEST(Analytics, SloGatesEvaluate) {
  ScenarioConfig cfg;
  cfg.duration = Duration::millis(400);
  cfg.warmup_iterations = 0;

  AnalyticsEngine engine;
  TraceBus bus;
  bus.add_sink(engine);
  cfg.trace = &bus;
  run_dumbbell_scenario(toy_jobs(), cfg);
  bus.flush();

  EXPECT_TRUE(engine.report().pass);  // no gates enabled

  SloConfig impossible;
  impossible.min_fairness = 2.0;  // Jain can never exceed 1
  EXPECT_FALSE(engine.report(impossible).pass);
  EXPECT_NE(engine.report(impossible).json.find("\"pass\": false"),
            std::string::npos);

  SloConfig must_alert;
  must_alert.require_anomaly = true;  // healthy run has none
  EXPECT_FALSE(engine.report(must_alert).pass);

  SloConfig generous;
  generous.min_fairness = 0.0;
  generous.max_anomalies = 0;
  generous.max_mean_slowdown = 1e9;
  EXPECT_TRUE(engine.report(generous).pass);
}

TEST(Analytics, SloOverEmptySampleFails) {
  // No job finished an iteration and no fairness window closed: the
  // slowdown, p99 and fairness gates have nothing to check, so they fail and
  // say so instead of passing on a 0 or a 1.
  AnalyticsEngine engine;
  engine.on_event(ev_at(Duration::millis(10), TraceEventKind::kFlowStart));
  SloConfig slo;
  slo.max_mean_slowdown = 10.0;
  slo.max_p99_iteration_ms = 1000.0;
  const RunHealthReport empty = engine.report(slo);
  EXPECT_FALSE(empty.pass);
  EXPECT_NE(empty.json.find("\"name\": \"max_mean_slowdown\", "
                            "\"threshold\": 10, \"actual\": null, "
                            "\"pass\": false"),
            std::string::npos)
      << empty.json;
  EXPECT_NE(empty.json.find("\"name\": \"max_p99_iteration_ms\", "
                            "\"threshold\": 1000, \"actual\": null, "
                            "\"pass\": false"),
            std::string::npos)
      << empty.json;
  SloConfig fairness;  // no fairness window closed either
  fairness.min_fairness = 0.5;
  EXPECT_NE(engine.report(fairness).json.find(
                "\"name\": \"min_fairness\", \"threshold\": 0.5, "
                "\"actual\": null, \"pass\": false"),
            std::string::npos);

  // One measured iteration is a sample: the same gates pass.
  TraceEvent it = ev_at(Duration::millis(20), TraceEventKind::kIteration);
  it.job = JobId{0};
  it.value = 10.0;
  engine.on_event(it);
  const RunHealthReport measured = engine.report(slo);
  EXPECT_TRUE(measured.pass) << measured.json;
  EXPECT_EQ(measured.json.find("null"), std::string::npos);
}

TEST(Analytics, TraceDropsReportedAsLowerBound) {
  AnalyticsEngine engine;
  TraceEvent it = ev_at(Duration::millis(10), TraceEventKind::kIteration);
  it.job = JobId{0};
  it.value = 10.0;
  engine.on_event(it);
  TraceEvent drops = ev_at(Duration::millis(20), TraceEventKind::kTraceDrops);
  drops.value = 7.0;
  engine.on_event(drops);
  EXPECT_EQ(engine.trace_drops(), 7u);
  const std::string json = engine.report().json;
  EXPECT_NE(json.find("\"trace_drops\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lower_bound\": true"), std::string::npos);
}

struct CollectSink final : TraceSink {
  std::vector<TraceEvent> events;
  bool flushed = false;
  void on_event(const TraceEvent& ev) override { events.push_back(ev); }
  void flush() override { flushed = true; }
};

TEST(Analytics, HistogramSummariesEmittedAtFlush) {
  CollectSink collect;
  AnalyticsEngine engine;
  engine.set_output(&collect);
  for (int i = 1; i <= 3; ++i) {
    TraceEvent it = ev_at(Duration::millis(50 * i), TraceEventKind::kIteration);
    it.job = JobId{i % 2};
    it.value = 50.0;
    engine.on_event(it);
    TraceEvent q = ev_at(Duration::millis(50 * i), TraceEventKind::kLinkQueue);
    q.link = LinkId{2};
    q.value = 1000.0;
    engine.on_event(q);
  }
  engine.flush();
  EXPECT_TRUE(collect.flushed);
  int job_digests = 0;
  int link_digests = 0;
  for (const TraceEvent& ev : collect.events) {
    if (ev.kind != TraceEventKind::kHistogramSummary) continue;
    if (ev.job.valid()) {
      ++job_digests;
      EXPECT_STREQ(ev.detail, "iteration_ms");
    }
    if (ev.link.valid()) {
      ++link_digests;
      EXPECT_STREQ(ev.detail, "queue_bytes");
    }
  }
  EXPECT_EQ(job_digests, 2);  // jobs 0 and 1
  EXPECT_EQ(link_digests, 1);
  // Flush is idempotent: a second call emits nothing new.
  const std::size_t n = collect.events.size();
  engine.flush();
  EXPECT_EQ(collect.events.size(), n);
}

TEST(Analytics, DerivedKindsOnInputAreSkippedNotDoubleCounted) {
  AnalyticsEngine engine;
  TraceEvent fake = ev_at(Duration::millis(5),
                          TraceEventKind::kAnomalyPhaseDrift);
  fake.value = 0.9;
  engine.on_event(fake);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.anomalies().size(), 0u);

  // But the raw forward still happens, so a chained sink sees the stream
  // unchanged (the engine is a pass-through, not a filter).
  CollectSink collect;
  AnalyticsEngine chained;
  chained.set_output(&collect);
  chained.on_event(fake);
  ASSERT_EQ(collect.events.size(), 1u);
  EXPECT_EQ(collect.events[0].kind, TraceEventKind::kAnomalyPhaseDrift);
}

}  // namespace
}  // namespace ccml
