// End-to-end tests of the observability layer: ring buffer semantics, the
// counter/gauge registry, the event stream a real scenario publishes, trace
// determinism (across runs and across SweepRunner thread counts), and the
// structure of the serialized formats.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/sweep.h"
#include "telemetry/recorders.h"
#include "workload/model_zoo.h"

namespace ccml {
namespace {

std::vector<ScenarioJob> two_jobs() {
  const JobProfile p = ModelZoo::synthetic(
      "toy", Duration::millis(20), Rate::gbps(40) * Duration::millis(10));
  return {{"J1", p}, {"J2", p}};
}

ScenarioConfig short_config() {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::millis(300);
  cfg.warmup_iterations = 0;
  return cfg;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RingBufferSink, KeepsLatestAndCountsDropped) {
  RingBufferSink sink(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent ev;
    ev.time = TimePoint::origin() + Duration::micros(i);
    ev.kind = TraceEventKind::kIteration;
    sink.on_event(ev);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LT(evs[i - 1].time, evs[i].time);  // oldest first
  }
  EXPECT_EQ(evs.front().time, TimePoint::origin() + Duration::micros(2));
}

TEST(TraceBus, CounterAndGaugeRegistry) {
  TraceBus bus;
  Counter& c = bus.counter("test.count");
  c.add();
  c.add(2);
  EXPECT_EQ(bus.counter("test.count").value(), 3);  // same object by name
  Gauge& g = bus.gauge("test.depth");
  EXPECT_FALSE(g.ever_set());
  g.set(5.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  const std::string summary = bus.metrics_summary();
  EXPECT_NE(summary.find("test.count"), std::string::npos);
  EXPECT_NE(summary.find("test.depth"), std::string::npos);
}

TEST(TraceBus, JobNameRegistry) {
  TraceBus bus;
  bus.register_job(JobId{0}, "alpha");
  ASSERT_NE(bus.job_name(JobId{0}), nullptr);
  EXPECT_EQ(*bus.job_name(JobId{0}), "alpha");
  EXPECT_EQ(bus.job_name(JobId{9}), nullptr);
}

TEST(TraceBus, SinkCadenceNegotiation) {
  TraceBus bus;
  std::ostringstream s1, s2;
  JsonlSinkOptions fast;
  fast.sample_cadence = Duration::millis(2);
  JsonlSinkOptions slow;
  slow.sample_cadence = Duration::millis(10);
  JsonlSink a(s1, fast), b(s2, slow);
  bus.add_sink(a);
  bus.add_sink(b);
  EXPECT_EQ(bus.sample_cadence(), Duration::millis(2));  // minimum wins
  EXPECT_TRUE(bus.sinks_quiescence_compatible());
}

TEST(ObsScenario, PublishesFullLifecycle) {
  RingBufferSink sink(1 << 20);
  TraceBus bus;
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();

  std::size_t starts = 0, finishes = 0, phases = 0, iters = 0, cnps = 0;
  for (const TraceEvent& ev : sink.events()) {
    switch (ev.kind) {
      case TraceEventKind::kFlowStart: ++starts; break;
      case TraceEventKind::kFlowFinish: ++finishes; break;
      case TraceEventKind::kPhase: ++phases; break;
      case TraceEventKind::kIteration: ++iters; break;
      case TraceEventKind::kRateDecrease: ++cnps; break;
      default: break;
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(phases, 0u);
  EXPECT_GT(cnps, 0u);  // two DCQCN jobs share the bottleneck -> CNPs fire

  std::size_t result_iters = 0;
  for (const auto& j : result.jobs) result_iters += j.iterations;
  EXPECT_EQ(iters, result_iters);
  EXPECT_EQ(bus.counter("jobs.iterations").value(),
            static_cast<std::int64_t>(result_iters));
  EXPECT_EQ(bus.counter("net.flows_started").value(),
            static_cast<std::int64_t>(starts));
  EXPECT_GT(bus.counter("dcqcn.cnp").value(), 0);
}

TEST(ObsScenario, FaultEventsReachTheBus) {
  RingBufferSink sink(1 << 20);
  TraceBus bus;
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.at = TimePoint::origin() + Duration::millis(60);
  down.link_name = "swL->swR";
  FaultEvent up = down;
  up.kind = FaultKind::kLinkUp;
  up.at = TimePoint::origin() + Duration::millis(120);
  cfg.faults.events = {down, up};
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();

  bool saw_apply = false, saw_recover = false;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind == TraceEventKind::kFaultApply) saw_apply = true;
    if (ev.kind == TraceEventKind::kFaultRecover) saw_recover = true;
  }
  EXPECT_TRUE(saw_apply);
  EXPECT_TRUE(saw_recover);
  EXPECT_EQ(bus.counter("faults.applied").value(), 1);
  EXPECT_EQ(bus.counter("faults.recovered").value(), 1);
}

TEST(ObsScenario, IterationEventsCarryTheirJob) {
  RingBufferSink sink(1 << 20);
  TraceBus bus;
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  std::vector<std::size_t> iters(result.jobs.size(), 0);
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != TraceEventKind::kIteration) continue;
    ASSERT_LT(static_cast<std::size_t>(ev.job.value), iters.size());
    ++iters[static_cast<std::size_t>(ev.job.value)];
  }
  for (std::size_t j = 0; j < iters.size(); ++j) {
    EXPECT_GT(iters[j], 0u) << "job " << j;
    EXPECT_EQ(iters[j], result.jobs[j].iterations) << "job " << j;
  }
}

std::string run_jsonl_once() {
  std::ostringstream out;
  TraceBus bus;
  JsonlSinkOptions opts;
  opts.sample_cadence = Duration::millis(5);
  JsonlSink sink(out, opts);
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  return out.str();
}

TEST(ObsDeterminism, JsonlTraceIsByteIdenticalAcrossRuns) {
  const std::string a = run_jsonl_once();
  const std::string b = run_jsonl_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ObsDeterminism, JsonlTraceIsByteIdenticalAcrossSweepThreadCounts) {
  const auto sweep_traces = [](unsigned threads) {
    SweepRunner runner(SweepOptions{threads});
    return runner.map<std::string>(
        3, [](std::size_t) { return run_jsonl_once(); });
  };
  const auto serial = sweep_traces(1);
  const auto parallel = sweep_traces(3);
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "grid point " << i;
    EXPECT_EQ(serial[i], serial[0]);  // same inputs -> same trace
  }
}

TEST(ObsChromeTrace, StructureIsBalanced) {
  std::ostringstream out;
  TraceBus bus;
  ChromeTraceSink sink(out);
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  const std::string trace = out.str();

  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"J1\""), std::string::npos);  // registered job name
  EXPECT_GT(count_of(trace, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_of(trace, "\"ph\":\"B\""), count_of(trace, "\"ph\":\"E\""));
  EXPECT_EQ(count_of(trace, "\"ph\":\"b\""), count_of(trace, "\"ph\":\"e\""));
  EXPECT_GT(count_of(trace, "\"ph\":\"C\""), 0u);  // link counter tracks
  EXPECT_GT(count_of(trace, "\"ph\":\"i\""), 0u);  // instant events
}

TEST(ObsChromeTrace, EveryEventKindAppears) {
  // One event of each kind into its own sink: every kind must produce at
  // least one trace record beyond the process/thread metadata.
  for (int k = 0; k <= static_cast<int>(TraceEventKind::kCcPhase); ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    SCOPED_TRACE(to_string(kind));
    std::ostringstream out;
    ChromeTraceSink sink(out);
    TraceEvent ev;
    ev.time = TimePoint::origin() + Duration::millis(1);
    ev.kind = kind;
    ev.job = JobId{0};
    ev.flow = FlowId{1};
    ev.link = LinkId{0};
    ev.value = 2.0;
    ev.value2 = 3.0;
    ev.detail = "comm";  // a phase only opens a slice when it is named
    sink.on_event(ev);
    sink.flush();
    const std::string trace = out.str();
    EXPECT_GT(count_of(trace, "\"ph\":\""), count_of(trace, "\"ph\":\"M\""));
    if (kind == TraceEventKind::kCkptWrite ||
        kind == TraceEventKind::kCkptBranch ||
        kind == TraceEventKind::kCcDecision ||
        kind == TraceEventKind::kCcPhase) {
      const std::string name = std::string("\"name\":\"") + to_string(kind);
      EXPECT_NE(trace.find(name), std::string::npos);
      EXPECT_NE(trace.find("\"value\":2,\"value2\":3"), std::string::npos);
    }
  }
}

TEST(ObsChromeTrace, UninstrumentedRunWritesNothing) {
  auto cfg = short_config();  // no trace bus attached
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  EXPECT_GT(result.jobs[0].iterations, 0u);
}

}  // namespace
}  // namespace ccml
