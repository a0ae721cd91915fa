#include "core/capacity.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

TEST(Capacity, GammaKMatchesBroadcastMincut) {
  const graph::digraph g = graph::paper_fig1a();
  EXPECT_EQ(gamma_k(g, 0), 2);
  EXPECT_EQ(gamma_k(graph::paper_fig2(), 0), 2);
}

TEST(Capacity, GammaStarExhaustiveFig1a) {
  // The adversary can get the {1,2} and {2,3} pairs removed (cover {2}),
  // forcing node 2 out; the surviving graph {0,1,3} has gamma 1.
  EXPECT_EQ(gamma_star_exhaustive(graph::paper_fig1a(), 0, 1), 1);
}

TEST(Capacity, GammaStarNeverExceedsGamma1) {
  rng rand(1);
  for (int trial = 0; trial < 8; ++trial) {
    const graph::digraph g = graph::erdos_renyi(5, 0.6, 1, 4, rand);
    const auto gs = gamma_star_exhaustive(g, 0, 1);
    EXPECT_LE(gs, graph::broadcast_mincut(g, 0));
    EXPECT_GE(gs, 0);
  }
}

TEST(Capacity, IncidentEstimateUpperBoundsExhaustive) {
  // The incident-sets search explores a subset of Gamma, so its minimum can
  // only be larger or equal.
  rng rand(2);
  for (int trial = 0; trial < 8; ++trial) {
    const graph::digraph g = graph::erdos_renyi(5, 0.5, 1, 3, rand);
    EXPECT_GE(gamma_star_incident(g, 0, 1), gamma_star_exhaustive(g, 0, 1));
  }
}

TEST(Capacity, ExhaustiveThrowsOnLargeGraphs) {
  EXPECT_THROW(gamma_star_exhaustive(graph::complete(8), 0, 2), nab::error);
}

TEST(Capacity, U1OfPaperExamples) {
  EXPECT_EQ(u1_exact(graph::paper_fig1a(), 1), 2);
  // K7 cap 1: 5-subsets are K5 with weight-2 edges -> U1 = 8.
  EXPECT_EQ(u1_exact(graph::complete(7), 2), 8);
}

TEST(Capacity, BoundsRelationshipsHold) {
  rng rand(3);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::digraph g = graph::erdos_renyi(5, 0.6, 1, 5, rand);
    const capacity_bounds b = compute_bounds(g, 0, 1, gamma_mode::exhaustive);
    // Theorem 3 algebra: T_NAB >= bound/3, and >= bound/2 when gamma* <= rho*.
    EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 3.0);
    if (static_cast<double>(b.gamma_star) <= b.rho_star) {
      EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 2.0);
    }
    EXPECT_LE(b.nab_throughput_bound, b.capacity_upper_bound + 1e-9);
    EXPECT_TRUE(b.gamma_exact);
  }
}

TEST(Capacity, GuaranteedFractionSelection) {
  rng rand(4);
  const graph::digraph g = graph::complete(4, 4);
  const capacity_bounds b = compute_bounds(g, 0, 1);
  EXPECT_TRUE(b.guaranteed_fraction == 0.5 || b.guaranteed_fraction == 1.0 / 3.0);
  if (static_cast<double>(b.gamma_star) <= b.rho_star) {
    EXPECT_DOUBLE_EQ(b.guaranteed_fraction, 0.5);
  }
}

TEST(Capacity, AutoModeSelectsExhaustiveForSmallGraphs) {
  const capacity_bounds b = compute_bounds(graph::paper_fig1a(), 0, 1);
  EXPECT_TRUE(b.gamma_exact);
  const capacity_bounds big = compute_bounds(graph::complete(8), 0, 2);
  EXPECT_FALSE(big.gamma_exact);
}

TEST(Capacity, FZeroMakesGammaStarGamma1) {
  // Without faults no disputes ever happen: Gamma = {G}.
  const graph::digraph g = graph::paper_fig2();
  EXPECT_EQ(gamma_star_exhaustive(g, 0, 0), graph::broadcast_mincut(g, 0));
}

}  // namespace
}  // namespace nab::core
