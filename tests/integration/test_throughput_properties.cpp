// Throughput-side properties across seeded random networks and five fixed
// ones: the realized per-instance rates dominate the worst-case quantities
// (gamma_k >= gamma*, rho_k >= rho* — the monotonicity Section 5.1 builds
// on), fault-free measured throughput beats the paper's NAB lower bound, and
// Theorem 3's algebra holds on every input.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/nab.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

/// One input network; `seed` also seeds the broadcast values.
struct network_case {
  std::string name;
  graph::digraph g;
  std::uint64_t seed;
};

void PrintTo(const network_case& c, std::ostream* os) { *os << c.name; }

network_case erdos_renyi_draw(std::uint64_t seed) {
  rng rand(seed);
  return {"erdos_renyi_seed" + std::to_string(seed),
          graph::erdos_renyi(5, 0.85, 1, 5, rand), seed};
}

class ThroughputProperty : public ::testing::TestWithParam<network_case> {};

TEST_P(ThroughputProperty, RealizedRatesDominateWorstCase) {
  const graph::digraph& g = GetParam().g;
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1},
                                  sim::fault_set(g.universe()));
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  const capacity_bounds b = compute_bounds(g, 0, 1);
  EXPECT_GE(s->next_gamma(), b.gamma_star);
  EXPECT_GE(static_cast<double>(s->next_rho()), std::floor(b.rho_star));
}

TEST_P(ThroughputProperty, FaultFreeMeasuredBeatsNabBound) {
  const graph::digraph& g = GetParam().g;
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1},
                                  sim::fault_set(g.universe()));
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  const capacity_bounds b = compute_bounds(g, 0, 1);
  rng rand(GetParam().seed ^ 0x77);
  s->run_many(3, 2048, rand);  // L = 32 Kib amortizes the flag term
  EXPECT_GE(s->stats().throughput() + 1e-9, b.nab_throughput_bound);
}

TEST_P(ThroughputProperty, Theorem3AlgebraHolds) {
  const graph::digraph& g = GetParam().g;
  const capacity_bounds b = compute_bounds(g, 0, 1);
  EXPECT_TRUE(b.gamma_exact);  // <= 10 adjacent pairs: gamma* is enumerated
  EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 3.0);
  if (static_cast<double>(b.gamma_star) <= b.rho_star) {
    EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 2.0);
  }
  EXPECT_LE(b.nab_throughput_bound, b.capacity_upper_bound + 1e-9);
}

TEST_P(ThroughputProperty, AttackedThroughputStillCorrectAndImproving) {
  const graph::digraph& g = GetParam().g;
  sim::fault_set faults(g.universe(), {2});
  stealth_disputer adv;
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1}, faults, &adv);
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  rng rand(GetParam().seed ^ 0x99);
  const auto first = s->run_many(4, 64, rand);
  const double early = s->stats().throughput();
  const auto later = s->run_many(12, 64, rand);
  const double late = s->stats().throughput();
  for (const auto& r : first) {
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity);
  }
  for (const auto& r : later) {
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity);
  }
  EXPECT_GE(late, early);  // amortization only improves the running average
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThroughputProperty,
                         ::testing::Values(erdos_renyi_draw(7), erdos_renyi_draw(19),
                                           erdos_renyi_draw(23), erdos_renyi_draw(31),
                                           erdos_renyi_draw(41), erdos_renyi_draw(53),
                                           erdos_renyi_draw(61), erdos_renyi_draw(71)));

// Complete graphs, thin and fat, and a weak-link K_4. Each has
// gamma* = rho*, where Theorem 3 guarantees exactly half of capacity.
INSTANTIATE_TEST_SUITE_P(
    FixedNetworks, ThroughputProperty,
    ::testing::Values(network_case{"K4_unit", graph::complete(4, 1), 99},
                      network_case{"K4_cap4", graph::complete(4, 4), 99},
                      network_case{"K5_unit", graph::complete(5, 1), 99},
                      network_case{"K5_cap3", graph::complete(5, 3), 99},
                      network_case{"K4_weak_link", graph::complete_with_weak_link(4, 6),
                                   99}),
    [](const ::testing::TestParamInfo<network_case>& info) { return info.param.name; });

}  // namespace
}  // namespace nab::core
