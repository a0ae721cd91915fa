// The paper's quantitative claims that no unit suite holds, each asserted on
// the network its section names:
// - Theorem 1: the equality check misses unequal values with probability
//   2^-mz per coded edge of capacity z over GF(2^m);
// - Section 3's choice rho_k = U_k/2: equality-check time is L/rho up to
//   chunk rounding, and a larger rho stops certifying;
// - Eq. (24): the classical-BB engine behind the 1-bit flags costs a
//   constant in L, and dispute control a constant in Q, so both amortize;
// - Section 1: capacity-oblivious broadcast is arbitrarily worse than NAB.
// The unit suites hold the worked figures, Theorem 3 (ThroughputProperty),
// Appendix A's rate L/t (Phase1.TimeIsLOverGamma) and Figure 3's pipelining
// (Pipeline.*); docs/PAPER_MAP.md maps each claim to its test.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "bb/broadcast.hpp"
#include "core/nab.hpp"
#include "gf/gf2m.hpp"
#include "gf/matrix.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

/// Misses in `trials` draws of Theorem 1's atomic event: two values differ
/// by a uniformly random nonzero row D of rho symbols, and a coded edge of
/// capacity z carries D C_e for a uniformly random rho x z matrix C_e. The
/// check misses iff D C_e = 0; each of the z products is uniform over
/// GF(2^m), so a miss has probability exactly 2^-mz.
template <class F>
int coded_edge_misses(int z, int trials, rng& rand) {
  using mat = gf::matrix<F>;
  constexpr std::size_t rho = 2;
  const mat zero(1, static_cast<std::size_t>(z));
  int misses = 0;
  for (int t = 0; t < trials; ++t) {
    mat diff(1, rho);
    while (diff == mat(1, rho)) diff = mat::random(1, rho, rand);
    if (diff * mat::random(rho, static_cast<std::size_t>(z), rand) == zero) ++misses;
  }
  return misses;
}

template <class F>
void expect_miss_rate(int z, rng& rand) {
  // 256 expected misses per row. The two-sided Chernoff bound
  // P(|X - mu| >= eps mu) <= 2 exp(-eps^2 mu / 3), 0 < eps < 1, sets eps so
  // that a correct field and coding fail a row with probability at most
  // 1e-6, for any seed: eps = sqrt(3 ln(2 / 1e-6) / 256) = 0.41. The band
  // of 151 to 361 misses excludes the mean of a rate 1.5x too high or 2x
  // too low.
  constexpr double expected_misses = 256;
  constexpr double false_failure_rate = 1e-6;
  const double p = std::ldexp(1.0, -static_cast<int>(F::bits) * z);
  const int trials = static_cast<int>(expected_misses / p);
  const double eps = std::sqrt(3 * std::log(2 / false_failure_rate) / expected_misses);
  EXPECT_NEAR(coded_edge_misses<F>(z, trials, rand), expected_misses,
              eps * expected_misses)
      << "GF(2^" << F::bits << "), z = " << z << ", " << trials << " trials";
}

TEST(PaperClaims, Theorem1MissRateIsTwoToTheMinusMz) {
  rng rand(0xE3);
  expect_miss_rate<gf::gf2m<4>>(1, rand);
  expect_miss_rate<gf::gf2m<6>>(1, rand);
  expect_miss_rate<gf::gf2m<8>>(1, rand);
  expect_miss_rate<gf::gf2m<4>>(2, rand);
  expect_miss_rate<gf::gf2m<6>>(2, rand);
  // GF(2^8) at z = 2 would need 16.8M trials for the same 256 misses.

  // At the production field GF(2^16) the union bound over Omega_1 is
  // 4.6e-4 per scheme on K_5 with f = 1 and rho = 2, so 100 random schemes
  // all certify (a fresh seed would fail this with probability <= 4.6%).
  ASSERT_NEAR(theorem1_failure_bound(5, 1, 2, 16), 4.58e-4, 1e-6);
  const graph::digraph k5 = graph::complete(5);
  for (std::uint64_t seed = 1; seed <= 100; ++seed)
    EXPECT_TRUE(certify_coding(k5, 1, dispute_record{},
                               coding_scheme::generate(k5, 2, seed))
                    .ok)
        << "seed " << seed;
}

TEST(PaperClaims, EqualityCheckTakesLOverRhoAndRhoAboveUkHalfFails) {
  // K_5 with capacity-2 links, f = 1: every H in Omega_1 is a K_4 whose
  // weakest pair cut is 12, so U_1 = 12 and the paper runs at rho = 6.
  const graph::digraph g = graph::complete(5, 2);
  ASSERT_EQ(compute_uk(g, 1, dispute_record{}), 12);
  constexpr std::size_t words = 1024;  // L = 16 Kbit
  rng rand(0xA1);
  std::vector<word> input(words);
  for (word& w : input) w = static_cast<word>(rand.below(65536));
  for (int rho = 1; rho <= 9; ++rho) {
    sim::network net(g);
    const std::vector<value_vector> values(5, value_vector::reshape(input, rho));
    const auto ec = run_equality_check(net, g, sim::fault_set(5),
                                       coding_scheme::generate(g, rho, 7), values);
    // Each link carries its z_e coded symbols of ceil(L / rho) bits.
    EXPECT_DOUBLE_EQ(ec.time, 16.0 * static_cast<double>((words + rho - 1) / rho))
        << "rho " << rho;
  }

  EXPECT_TRUE(certify_coding(g, 1, dispute_record{}, coding_scheme::generate(g, 6, 7)).ok);
  // At rho = 9, C_H needs (|H| - 1) rho = 27 independent rows, but H's 12
  // links carry only 24 coded symbols: no seed can certify.
  EXPECT_EQ(build_check_matrix(g, {0, 1, 2, 3}, coding_scheme::generate(g, 9, 7)).cols(),
            24u);
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    EXPECT_FALSE(
        certify_coding(g, 1, dispute_record{}, coding_scheme::generate(g, 9, seed)).ok)
        << "seed " << seed;
}

TEST(PaperClaims, FlagEngineCostAmortizesInL) {
  // Step 2.2 needs some classical BB for the 1-bit flags. On complete
  // graphs with f = 1 a 1-bit broadcast costs 34 with EIG and 4 with
  // phase-king, whatever n is.
  for (int n : {5, 8, 12}) {
    const graph::digraph kn = graph::complete(n);
    for (const auto& [engine, cost] : {std::pair{bb::bb_protocol::eig, 34.0},
                                       std::pair{bb::bb_protocol::phase_king, 4.0}}) {
      sim::network net(kn);
      bb::channel_plan plan(kn, 1);
      EXPECT_DOUBLE_EQ(
          bb::broadcast_default(plan, net, sim::fault_set(n), 0, {1}, 1, 1, engine).time,
          cost)
          << "n = " << n;
    }
  }
  // That cost is constant in L, so the flags' share of the time falls as L
  // grows, and NAB's throughput with EIG flags and with phase-king flags
  // converges. K_5 with capacity-2 links, Q = 2.
  const auto run = [](bb::bb_protocol engine, std::size_t words) {
    session_config cfg{.g = graph::complete(5, 2), .f = 1};
    cfg.flag_protocol = engine;
    session s(cfg, sim::fault_set(5));
    rng rand(3);
    double flags = 0;
    for (const auto& r : s.run_many(2, words, rand)) flags += r.time_flags;
    return std::pair{s.stats().throughput(), flags / s.stats().elapsed};
  };
  double previous_gap = std::numeric_limits<double>::infinity();
  double previous_share = 1;
  for (std::size_t words : {64, 1024, 4096}) {  // L = 1, 16 and 64 Kbit
    const auto [eig, flag_share] = run(bb::bb_protocol::eig, words);
    const double king = run(bb::bb_protocol::phase_king, words).first;
    const double gap = std::abs(king - eig) / eig;
    EXPECT_LT(flag_share, previous_share) << 16 * words << " bits";
    EXPECT_LT(gap, previous_gap) << 16 * words << " bits";
    if (words == 1024) {
      EXPECT_LT(gap, 0.01);
    }
    previous_share = flag_share;
    previous_gap = gap;
  }
}

TEST(PaperClaims, DisputeControlAmortizesInQ) {
  // A stealth coalition burns one dispute per instance, yet dispute control
  // runs at most f(f+1) times, so over enough instances the attacked
  // throughput passes the fault-free guarantee. K_4, f = 1, L = 1 Kbit.
  const graph::digraph g = graph::complete(4);
  const capacity_bounds b = compute_bounds(g, 0, 1);
  ASSERT_DOUBLE_EQ(b.nab_throughput_bound, 1.0);
  stealth_disputer adv;
  session s({.g = g, .f = 1}, sim::fault_set(4, {1}), &adv);
  rng rand(7);
  s.run_many(8, 64, rand);
  EXPECT_LT(s.stats().throughput(), b.nab_throughput_bound / 2);
  s.run_many(120, 64, rand);
  EXPECT_LE(s.stats().dispute_phases, 1 * 2);  // f(f+1)
  EXPECT_GT(s.stats().throughput(), b.nab_throughput_bound);
}

TEST(PaperClaims, CapacityObliviousBroadcastIsArbitrarilyWorse) {
  // Section 1: K_5 with capacity-c links but one unit link. EIG over direct
  // links ships the whole value over every link, so the unit link holds
  // its throughput below 1; NAB routes around it at rates that grow with c.
  constexpr std::size_t words = 2048;  // L = 32 Kbit
  double previous_gap = 0;
  for (graph::capacity_t c : {1, 16, 256}) {
    const graph::digraph g = graph::complete_with_weak_link(5, c);
    sim::network net(g);
    bb::channel_plan plan(g, 1);
    rng rand(5);
    bb::value blob(words / 4);
    for (auto& w : blob) w = rand.next_u64();
    const double baseline =
        16.0 * words / bb::broadcast_default(plan, net, sim::fault_set(5), 0, blob, 1,
                                             16 * words, bb::bb_protocol::eig)
                           .time;
    session s({.g = g, .f = 1}, sim::fault_set(5));
    s.run_many(4, words, rand);
    const double gap = s.stats().throughput() / baseline;
    EXPECT_GT(gap, previous_gap) << "c = " << c;
    previous_gap = gap;
  }
  EXPECT_GT(previous_gap, 100.0);  // at c = 256
}

}  // namespace
}  // namespace nab::core
