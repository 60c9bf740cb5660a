// The transport zoo's contracts (src/cc/policy + the new transports):
//
//  * porting DCQCN / DCQCN-adaptive / TIMELY onto the shared policy core
//    (cc/policy/{observation,cadence,slab}.h) changed ZERO observable bytes —
//    golden FNV-1a hashes of rates + finish times + full JSONL trace captured
//    on the pre-port seed are pinned here;
//  * deleting the AoS reference kernels changed nothing either: goldens of
//    the fused contest, a brownout contest, Swift, and serialize_state()
//    captured just before pin DCQCN, TIMELY and Swift (their scalar oracles
//    live in tests/cc_kernel_parity_test.cpp);
//  * folding TIMELY, Swift, BBR-lite and the table policy onto one
//    rate-machine scaffold changed nothing: goldens captured before pin BBR,
//    the table policy and both MLTCP wraps;
//  * the decision-cadence edge cases hold: flows that start with no RTT
//    sample yet produce finite rates, and a cadence longer than the whole
//    burst window makes zero decisions instead of a partial-interval one;
//  * every new transport's rate machine (Swift, BBR-lite, table) serializes
//    deterministically, including its RNG stream, and record / replay-verify
//    checkpointing is byte-identical for every reactive transport — the
//    library half of the SIGKILL + --resume contract CI exercises end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cc/factory.h"
#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/scenario.h"
#include "net/network.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ccml {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

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

struct ContestResult {
  std::uint64_t hash = 0;
  std::vector<double> samples;
  std::vector<double> finish_ms;
  std::string cc_state;
  /// FNV-1a of serialize_state() 1 ms into every start round (flows in
  /// flight) and at the end of the contest.
  std::uint64_t state_hash = 0;
};

struct ContestOptions {
  /// Attach the per-tick rate recorder.  Without it the network fuses
  /// completion-free ticks (Network::step_burst) and the hash covers only
  /// finish times and the trace.
  bool observe = true;
  /// Brown the bottleneck out to 40 % of its capacity 1 ms into the second
  /// start round and restore it 3 ms later, both with flows in flight.
  bool brownout = false;
};

/// The canonical asymmetric dumbbell contest (same shape as
/// tests/cc_kernel_parity_test.cpp): two flow pairs with staggered
/// aggressiveness knobs, three start rounds, hashed over every per-step rate
/// sample, every finish time, and the full JSONL trace.
ContestResult run_contest(PolicyKind kind, const TransportConfig& tc = {},
                          ContestOptions opts = {}) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, make_policy(kind, tc), cfg);
  net.attach(sim);

  ContestResult out;
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out);
  bus.add_sink(sink);
  net.set_trace_bus(&bus);

  RateRecorder recorder;
  if (opts.observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  if (opts.brownout) {
    const LinkId trunk = router.pick(hosts[0], hosts[1], 0).links[1];
    sim.schedule_at(TimePoint::origin() + Duration::millis(9), [&net, trunk] {
      net.set_link_capacity_factor(trunk, 0.4);
    });
    sim.schedule_at(TimePoint::origin() + Duration::millis(12), [&net, trunk] {
      net.set_link_capacity_factor(trunk, 1.0);
    });
  }
  std::uint64_t state_hash = 1469598103934665603ULL;
  const auto hash_state = [&] {
    const std::string state = net.policy().serialize_state();
    state_hash = fnv1a(state.data(), state.size(), state_hash);
  };
  const auto start = [&](int pair, Duration timer, Rate rai) {
    FlowSpec fs;
    fs.src = hosts[pair * 2];
    fs.dst = hosts[pair * 2 + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = Bytes::mega(8);
    fs.cc_timer = timer;
    fs.cc_rai = rai;
    net.start_flow(std::move(fs), [&out](const Flow&, TimePoint t) {
      out.finish_ms.push_back(t.since_origin().to_millis());
    });
  };
  for (int round = 0; round < 3; ++round) {
    start(0, Duration::micros(55), Rate::mbps(80));
    start(1, Duration::micros(300), Rate::mbps(40));
    sim.run_for(Duration::millis(1));
    hash_state();
    sim.run_for(Duration::millis(7));
  }
  sim.run_for(Duration::millis(30));
  hash_state();

  bus.flush();
  out.samples = recorder.samples();
  out.cc_state = net.policy().serialize_state();
  out.state_hash = state_hash;
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(out.samples.data(), out.samples.size() * sizeof(double), h);
  h = fnv1a(out.finish_ms.data(), out.finish_ms.size() * sizeof(double), h);
  const std::string trace = trace_out.str();
  h = fnv1a(trace.data(), trace.size(), h);
  out.hash = h;
  return out;
}

CcPolicyTable tiny_table() {
  std::istringstream in(
      "ccml-cc-table v1\n"
      "cadence_us 30\n"
      "bins rtt_us 40 80\n"
      "bins ecn 0.05\n"
      "rule 2 * * * 0.7\n"
      "rule * * 1 * 0.85\n"
      "rule 0 * 0 * 1.05 5\n"
      "default 1.0 2\n");
  return CcPolicyTable::parse(in);
}

TransportConfig table_transports() {
  TransportConfig tc;
  tc.table.table = tiny_table();
  return tc;
}

// --- Port parity: the subsystem refactor changed nothing observable --------

TEST(TransportZoo, PortedKernelsMatchPreSubsystemGoldens) {
  // Captured on the commit BEFORE the policy subsystem existed; a mismatch
  // means the port changed DCQCN / TIMELY behavior, not just its plumbing.
  EXPECT_EQ(run_contest(PolicyKind::kDcqcn).hash, 0x379fc0c60a6dfaf1ULL);
  EXPECT_EQ(run_contest(PolicyKind::kDcqcnAdaptive).hash,
            0x09085310be36bad6ULL);
  EXPECT_EQ(run_contest(PolicyKind::kTimely).hash, 0xab782057066d798cULL);
}

TEST(TransportZoo, KernelsMatchParentGoldens) {
  // Captured on the last commit that shipped the AoS reference kernels
  // beside the SoA ones, before they left src/cc: the fused (unobserved)
  // contest, the brownout contest, Swift's plain contest, and
  // serialize_state() in flight and at the end.
  const ContestOptions fused{.observe = false};
  const ContestOptions brownout{.brownout = true};
  EXPECT_EQ(run_contest(PolicyKind::kDcqcn, {}, fused).hash,
            0xce68ec476fd9a455ULL);
  EXPECT_EQ(run_contest(PolicyKind::kTimely, {}, fused).hash,
            0x50fe1eea0fa04e5cULL);
  EXPECT_EQ(run_contest(PolicyKind::kDcqcn, {}, brownout).hash,
            0x03e0b06166c6c8e0ULL);
  EXPECT_EQ(run_contest(PolicyKind::kTimely, {}, brownout).hash,
            0xd3a9b77db40c9446ULL);
  EXPECT_EQ(run_contest(PolicyKind::kSwift, {}, brownout).hash,
            0x955de083b674f996ULL);
  EXPECT_EQ(run_contest(PolicyKind::kSwift).hash, 0x1fa388745c740585ULL);
  EXPECT_EQ(run_contest(PolicyKind::kDcqcn).state_hash, 0xbfc7c6a6458076e7ULL);
  EXPECT_EQ(run_contest(PolicyKind::kDcqcnAdaptive).state_hash,
            0x76276a361a969128ULL);
  EXPECT_EQ(run_contest(PolicyKind::kTimely).state_hash, 0xbcc8fd1874c60c18ULL);
  EXPECT_EQ(run_contest(PolicyKind::kSwift).state_hash, 0xd1acb5b10daed9f8ULL);
}

TEST(TransportZoo, RateMachinesMatchParentGoldens) {
  // Captured on the last commit where TIMELY, Swift, BBR-lite and the table
  // policy each carried their own copy of the per-flow lifecycle, before it
  // moved into one scaffold (cc/policy/rate_machine.h).  Per transport: the
  // plain, fused and brownout contest hashes and serialize_state().
  struct Golden {
    PolicyKind kind;
    std::uint64_t plain, fused, brownout, state;
  };
  const Golden goldens[] = {
      {PolicyKind::kBbr, 0x2f238c3919917c79ULL, 0x403d6bf824e9c446ULL,
       0x7712a1556e9398ccULL, 0x03e170b808859f4eULL},
      {PolicyKind::kTable, 0x9272e24c6043aa4aULL, 0x45695f56f94766daULL,
       0x204c03a9d7f03ad5ULL, 0x2656186ba2b93ab3ULL},
      {PolicyKind::kMltcpTimely, 0x7e2913de59abe801ULL, 0x165aaf6081aaa547ULL,
       0x133cf6a715ab59d2ULL, 0x6631547ca9a2a942ULL},
      {PolicyKind::kMltcpSwift, 0x469ea0c21992d9d7ULL, 0x39c3ddb2783c7d27ULL,
       0xbd15e7935079060fULL, 0x897f60b3d02982cfULL},
  };
  for (const Golden& g : goldens) {
    const TransportConfig tc =
        g.kind == PolicyKind::kTable ? table_transports() : TransportConfig{};
    const ContestResult plain = run_contest(g.kind, tc);
    EXPECT_EQ(plain.hash, g.plain) << to_string(g.kind);
    EXPECT_EQ(run_contest(g.kind, tc, {.observe = false}).hash, g.fused)
        << to_string(g.kind);
    EXPECT_EQ(run_contest(g.kind, tc, {.brownout = true}).hash, g.brownout)
        << to_string(g.kind);
    EXPECT_EQ(plain.state_hash, g.state) << to_string(g.kind);
  }
  // The random paths: Swift's target jitter and the table's exploration.
  TransportConfig jitter;
  jitter.swift.target_jitter_us = 5.0;
  EXPECT_EQ(run_contest(PolicyKind::kSwift, jitter).state_hash,
            0x8869450d8f189cd9ULL);
  TransportConfig explore = table_transports();
  explore.table.explore = 0.1;
  EXPECT_EQ(run_contest(PolicyKind::kTable, explore).state_hash,
            0xd2ab1923521e6040ULL);
}

// --- Decision-cadence edge cases -------------------------------------------

TEST(TransportZoo, ZeroRttStartupProducesFiniteRates) {
  // The first decision after flow start has no previous RTT sample; the
  // gradient must come out zero, not NaN, for every transport that uses it.
  for (const PolicyKind kind :
       {PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpSwift}) {
    const ContestResult r = run_contest(
        kind, kind == PolicyKind::kTable ? table_transports()
                                         : TransportConfig{});
    EXPECT_EQ(r.finish_ms.size(), 6u) << to_string(kind);
    for (const double s : r.samples) {
      ASSERT_TRUE(std::isfinite(s) && s > 0.0)
          << to_string(kind) << " produced rate " << s;
    }
  }
}

TEST(TransportZoo, CadenceLongerThanBurstWindowMakesNoDecision) {
  // With the decision interval stretched past the whole run, the cadence
  // gate must simply never fire: rates stay at their flow-start value for
  // the entire burst (no partial-interval decision, no since_ns artifact)
  // and the flows still complete.
  TransportConfig tc;
  tc.swift.update_interval = Duration::millis(500);
  const ContestResult r = run_contest(PolicyKind::kSwift, tc);
  EXPECT_EQ(r.finish_ms.size(), 6u);
  ASSERT_FALSE(r.samples.empty());
  for (const double s : r.samples) {
    EXPECT_EQ(s, r.samples.front());
  }
}

// --- RNG + serialization determinism ---------------------------------------

TEST(TransportZoo, RngStateRoundTripsExactly) {
  Rng a(42);
  for (int i = 0; i < 100; ++i) a.uniform();
  const std::string state = a.save_state();
  std::vector<double> ahead;
  for (int i = 0; i < 32; ++i) ahead.push_back(a.uniform());

  Rng b(7);  // different seed, fully overwritten by load_state
  ASSERT_TRUE(b.load_state(state));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(b.uniform(), ahead[static_cast<std::size_t>(i)]);
  }
}

TEST(TransportZoo, NewTransportsSerializeDeterministically) {
  // Two identical contests must produce byte-identical serialize_state()
  // payloads — including the RNG stream position — or checkpoint verify
  // could never hold.  BBR draws its probe-cycle offset per flow and the
  // table policy draws exploration jitter per decision, so this covers
  // every new rate machine's RNG usage.
  for (const PolicyKind kind :
       {PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpSwift}) {
    const TransportConfig tc =
        kind == PolicyKind::kTable ? table_transports() : TransportConfig{};
    const ContestResult once = run_contest(kind, tc);
    const ContestResult twice = run_contest(kind, tc);
    EXPECT_FALSE(once.cc_state.empty()) << to_string(kind);
    EXPECT_EQ(once.cc_state, twice.cc_state) << to_string(kind);
    EXPECT_EQ(once.hash, twice.hash) << to_string(kind);
  }
}

// --- Checkpoint record / replay-verify per new transport --------------------

JobProfile toy(double compute_ms, double comm_ms) {
  return ModelZoo::synthetic(
      "toy", Duration::from_millis_f(compute_ms),
      Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ccml_transport_zoo_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(TransportZoo, EveryNewTransportRecordsAndReplayVerifies) {
  // The scenario snapshot's "cc" section is the transport's serialized rate
  // machine; replay from the latest checkpoint must verify byte-identically
  // for every reactive transport, the plain DCQCN / TIMELY kernels as well
  // as the ones the zoo added (the library half of the CLI's SIGKILL +
  // --resume test in CI).
  for (const PolicyKind kind :
       {PolicyKind::kDcqcn, PolicyKind::kDcqcnAdaptive, PolicyKind::kTimely,
        PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpDcqcn, PolicyKind::kMltcpTimely,
        PolicyKind::kMltcpSwift}) {
    const std::string label = to_string(kind);
    const std::string dir = fresh_dir(label);
    const std::vector<ScenarioJob> jobs = {{"a", toy(40, 20)},
                                           {"b", toy(60, 25)}};
    ScenarioConfig cfg;
    cfg.policy = kind;
    if (kind == PolicyKind::kTable) cfg.transports = table_transports();
    cfg.duration = Duration::seconds(2);

    CheckpointCoordinator ck(CheckpointCoordinator::Options{
        Duration::millis(400), dir, "zoo-spec",
        CheckpointCoordinator::Mode::kRecord, {}, 0});
    cfg.checkpoint = &ck;
    run_dumbbell_scenario(jobs, cfg);
    ASSERT_GE(ck.snapshots_taken(), 1u) << label;

    const Snapshot snap = Snapshot::load(dir + "/latest.ccml");
    EXPECT_FALSE(snap.get("cc").empty()) << label;

    const auto cursor = CheckpointCoordinator::read_cursor(snap);
    CheckpointCoordinator rk(CheckpointCoordinator::Options{
        Duration::millis(400), fresh_dir(label + "_replay"), "zoo-spec",
        CheckpointCoordinator::Mode::kReplayVerify, snap, cursor.seq});
    ScenarioConfig cfg2 = cfg;
    cfg2.checkpoint = &rk;
    run_dumbbell_scenario(jobs, cfg2);
    EXPECT_TRUE(rk.verified()) << label;
  }
}

// --- Factory + registry diagnostics -----------------------------------------

TEST(TransportZoo, UnknownTransportErrorListsTheRegistry) {
  try {
    parse_policy_kind("cubic");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"dcqcn", "timely", "swift", "bbr", "table",
                             "mltcp-dcqcn", "mltcp-swift"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(TransportZoo, TableTransportWithoutTableThrows) {
  EXPECT_THROW(make_policy(PolicyKind::kTable, TransportConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccml
