// Property test for the frozen-burst closed form (net/repeat_subtract.h):
// repeat_subtract(r, d, k) must equal k rounds of `r -= d`, bit for bit, on
// seeded cases that cover realistic byte counts and rates, round-half-even
// ties at both parities, r at a binade's bottom, d below half an ulp, d of
// a binade or more, signs, zeros, subnormals and non-finite values, with k
// of 0, 1, a few hundred and more than 10^4.  Network::advance_frozen must
// leave serialize_state() exactly where the tick-by-tick integrator does.
#include "net/repeat_subtract.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cc/max_min_fair.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/simulator.h"

namespace ccml {
namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The loop the closed form replaces.
double loop(double r, double d, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) r -= d;
  return r;
}

/// ulp of the binade holding a positive normal x.
double ulp_of(double x) {
  int e = 0;
  std::frexp(x, &e);  // x = f * 2^e, f in [0.5, 1)
  return std::ldexp(1.0, e - 53);
}

enum class Shape {
  kRealistic,     // frozen-burst byte counts and per-tick bytes
  kTie,           // d = (F + 1/2) ulps, M of either parity
  kBinadeBottom,  // r a power of two
  kBelowHalfUlp,  // |d| < ulp / 2, and exactly ulp / 2
  kBinadeOrMore,  // |d| >= 2^exponent(r): q >= 2^52
  kAnyBits,       // arbitrary signs, zeros, subnormals, inf, NaN
  kCount,
};

struct Draw {
  double r = 0.0;
  double d = 0.0;
  std::uint64_t k = 0;
};

class Cases {
 public:
  explicit Cases(std::uint64_t seed) : rng_(seed) {}

  Draw next(Shape shape) {
    Draw c;
    switch (shape) {
      case Shape::kRealistic: {
        // Remaining bytes from 1 B to 10 GB; rates 1 Mbps to 400 Gbps over
        // a 1-100 us tick, as the fabric integrates them.
        c.r = std::pow(10.0, uniform(0.0, 10.0));
        const double rate = std::pow(10.0, uniform(6.0, 11.6));
        const double dt_s = std::pow(10.0, uniform(-6.0, -4.0));
        c.d = rate * dt_s / 8.0;
        break;
      }
      case Shape::kTie: {
        const double u = ulp_of(c.r = std::pow(2.0, uniform(-20.0, 40.0)));
        // Any significand in the binade, then force its parity.
        std::uint64_t m = (std::uint64_t{1} << 52) | (rng_() >> 12);
        m = (m & ~std::uint64_t{1}) | (rng_() & 1);
        c.r = std::ldexp(static_cast<double>(m), std::ilogb(u));
        const std::uint64_t f = rng_() % 4 == 0 ? 0 : rng_() % (1u << 20);
        c.d = (static_cast<double>(f) + 0.5) * u;
        break;
      }
      case Shape::kBinadeBottom: {
        c.r = std::ldexp(1.0, static_cast<int>(rng_() % 120) - 40);
        const double u = ulp_of(c.r);
        switch (rng_() % 4) {
          case 0:  // below the finer ulp under the edge
            c.d = u * uniform(0.0, 0.5);
            break;
          case 1:  // exactly a quarter or half ulp: ties on either side
            c.d = u * (rng_() % 2 == 0 ? 0.25 : 0.5);
            break;
          default:
            c.d = u * std::pow(2.0, uniform(0.0, 30.0));
        }
        break;
      }
      case Shape::kBelowHalfUlp: {
        c.r = std::pow(10.0, uniform(-3.0, 12.0));
        const double u = ulp_of(c.r);
        c.d = rng_() % 8 == 0 ? u * 0.5
                              : u * uniform(0.0, 0.5) *
                                    std::pow(2.0, -uniform(0.0, 60.0));
        break;
      }
      case Shape::kBinadeOrMore: {
        c.r = std::pow(10.0, uniform(-3.0, 12.0));
        c.d = c.r * uniform(0.5, 8.0);
        break;
      }
      case Shape::kAnyBits:
      case Shape::kCount: {
        c.r = any_double();
        c.d = any_double();
        break;
      }
    }
    if (shape != Shape::kAnyBits && rng_() % 8 == 0) c.d = -c.d;
    if (shape != Shape::kAnyBits && rng_() % 16 == 0) c.r = -c.r;
    c.k = ticks();
    return c;
  }

 private:
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }

  std::uint64_t ticks() {
    switch (rng_() % 16) {
      case 0:
        return 0;
      case 1:
        return 1;
      case 2:
        return 10001 + rng_() % 10000;
      default:
        return 2 + rng_() % 300;
    }
  }

  double any_double() {
    switch (rng_() % 10) {
      case 0:
        return rng_() % 2 == 0 ? 0.0 : -0.0;
      case 1:  // subnormal
        return std::bit_cast<double>((rng_() >> 12) | (rng_() & (1ull << 63)));
      case 2: {
        const double specials[] = {std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::max(),
                                   std::numeric_limits<double>::min()};
        return specials[rng_() % 5];
      }
      default: {
        // Any sign and significand, exponents clustered so that pairs land
        // within a few binades of each other often enough to interact.
        const double mag = std::ldexp(
            1.0 + static_cast<double>(rng_() >> 12) * 0x1p-52,
            static_cast<int>(rng_() % 64) - 32);
        return rng_() % 2 == 0 ? mag : -mag;
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(RepeatSubtract, MatchesTheLoopBitForBit) {
  constexpr int kPerShape = 20000;  // 120000 cases in all
  Cases cases(20261020);
  std::uint64_t loop_steps = 0;
  for (int s = 0; s < static_cast<int>(Shape::kCount); ++s) {
    const Shape shape = static_cast<Shape>(s);
    for (int i = 0; i < kPerShape; ++i) {
      const Draw c = cases.next(shape);
      std::uint64_t ops = 0;
      const double got = repeat_subtract(c.r, c.d, c.k, ops);
      const double want = loop(c.r, c.d, c.k);
      loop_steps += c.k;
      ASSERT_EQ(bits_of(got), bits_of(want))
          << "shape " << s << " case " << i << std::hexfloat << ": r "
          << c.r << " d " << c.d << " k " << c.k << " gave " << got
          << " instead of " << want;
      ASSERT_LE(ops, c.k) << "more operations than the loop's steps";
    }
  }
  EXPECT_GT(loop_steps, 10'000'000u);
}

// Named edges, each checked at every k up to a few hundred so that a
// segment's last step, the binade crossing and the fixed point are all hit.
TEST(RepeatSubtract, NamedEdges) {
  const double u = 0x1p-29;  // ulp of [2^23, 2^24)
  const struct {
    const char* name;
    double r;
    double d;
  } edges[] = {
      {"tie, M even", 0x1p23 + 2 * u, 3.5 * u},
      {"tie, M odd", 0x1p23 + 3 * u, 3.5 * u},
      {"tie at half an ulp, M even", 0x1p23 + 2 * u, 0.5 * u},
      {"tie at half an ulp, M odd", 0x1p23 + 1 * u, 0.5 * u},
      {"binade bottom, tiny d", 0x1p23, 1e-30},
      {"binade bottom, quarter ulp", 0x1p23, 0.25 * u},
      {"binade bottom, half ulp", 0x1p23, 0.5 * u},
      {"binade top, growing", -(0x1p24 - u), 0.75 * u},
      {"d exactly a binade", 0x1p23 + 5 * u, 0x1p23},
      {"d exactly r", 1000.0, 1000.0},
      {"zero d", 5.0, 0.0},
      {"negative zero d", -0.0, -0.0},
      {"zero r", 0.0, 3.0},
      {"subnormal", 0x1p-1070, 0x1p-1074},
      {"d overflows q", 0x1p-1000, 0x1p1000},
      {"infinite d", 1.0, std::numeric_limits<double>::infinity()},
      {"NaN r", std::numeric_limits<double>::quiet_NaN(), 1.0},
  };
  for (const auto& e : edges) {
    for (std::uint64_t k = 0; k <= 300; ++k) {
      std::uint64_t ops = 0;
      ASSERT_EQ(bits_of(repeat_subtract(e.r, e.d, k, ops)),
                bits_of(loop(e.r, e.d, k)))
          << e.name << ", k " << k;
    }
  }
}

// The point of the closed form: a frozen flow's cost is the binades it
// crosses, not its ticks.
TEST(RepeatSubtract, CostFollowsBinadesNotTicks) {
  std::uint64_t ops = 0;
  // 8 MB left at 50 Gbps over 20 us ticks (125 KB a tick): 60 ticks cross
  // the binades down from 2^23 to 2^19.
  const double d = 50e9 * 20e-6 / 8.0;
  const double r = 8e6;
  const double got = repeat_subtract(r, d, 60, ops);
  EXPECT_EQ(bits_of(got), bits_of(loop(r, d, 60)));
  EXPECT_LE(ops, 16u);
  // A 16384-tick burst inside one binade is a single integer segment.
  ops = 0;
  const double big = 0x1.8p40;  // 1.5 TB left
  EXPECT_EQ(bits_of(repeat_subtract(big, d, 16384, ops)),
            bits_of(loop(big, d, 16384)));
  EXPECT_EQ(ops, 1u);
}

// --- Network::advance_frozen -------------------------------------------------

struct Fabric {
  Fabric()
      : topo(Topology::dumbbell(4, Rate::gbps(50), Rate::gbps(100))),
        router(topo) {
    net = std::make_unique<Network>(topo, std::make_unique<MaxMinFairPolicy>());
    net->attach(sim);
    const auto hosts = topo.hosts();
    const double sizes[] = {8e6, 0x1p23, 123456789.0, 1e9};
    const double rates[] = {42.5e9, 0.0, 1.3e9, 21.25e9};
    for (int i = 0; i < 4; ++i) {
      FlowSpec fs;
      fs.src = hosts[2 * i];
      fs.dst = hosts[2 * i + 1];
      fs.route = router.pick(fs.src, fs.dst, 0);
      fs.size = Bytes::of(sizes[i]);
      const FlowId id = net->start_flow(std::move(fs));
      net->set_rate(net->slot_of(id), Rate::bps(rates[i]));
    }
  }
  Simulator sim;
  Topology topo;
  Router router;
  std::unique_ptr<Network> net;
};

TEST(AdvanceFrozen, MatchesTheTickLoopAndCountsItsWork) {
  const double dt_s = Duration::micros(20).to_seconds();
  for (const std::uint64_t ticks : {0u, 1u, 2u, 37u, 150u}) {
    Fabric loop_net;
    Fabric jump_net;
    for (std::uint64_t k = 0; k < ticks; ++k) {
      loop_net.net->integrate_progress_unchecked(dt_s);
    }
    jump_net.net->advance_frozen(dt_s, ticks);
    EXPECT_EQ(loop_net.net->serialize_state(), jump_net.net->serialize_state())
        << ticks << " ticks";
    const Network::FrozenWork& work = jump_net.net->frozen_work();
    EXPECT_EQ(work.flow_ticks, ticks * 4);
    EXPECT_LE(work.ops, work.flow_ticks);
    // The unchecked loop is not counted.
    EXPECT_EQ(loop_net.net->frozen_work().flow_ticks, 0u);
  }
}

}  // namespace
}  // namespace ccml
