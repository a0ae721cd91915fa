#include "core/omega.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nab::core {
namespace {

TEST(DisputeRecord, BasicOperations) {
  dispute_record r;
  EXPECT_TRUE(r.empty());
  r.add_dispute(3, 1);
  EXPECT_TRUE(r.in_dispute(1, 3));
  EXPECT_TRUE(r.in_dispute(3, 1));
  EXPECT_FALSE(r.in_dispute(1, 2));
  EXPECT_EQ(r.dispute_degree(1), 1);
  EXPECT_EQ(r.dispute_degree(2), 0);
  r.add_dispute(1, 3);  // idempotent
  EXPECT_EQ(r.pairs().size(), 1u);
  r.convict(3);
  EXPECT_TRUE(r.is_convicted(3));
  EXPECT_FALSE(r.is_convicted(1));
}

TEST(Omega, NoDisputesGivesAllSubsets) {
  const graph::digraph g = graph::paper_fig1a();  // n=4
  const auto subs = omega_subgraphs(g, 1, dispute_record{});
  EXPECT_EQ(subs.size(), 4u);  // C(4,3)
}

TEST(Omega, PaperFig1bExample) {
  // n=4, f=1, nodes 2,3 (0-based 1,2) in dispute: Omega_k = {1,2,4},{1,3,4}.
  const graph::digraph g = graph::paper_fig1b();
  dispute_record r;
  r.add_dispute(1, 2);
  const auto subs = omega_subgraphs(g, 1, r);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0], (std::vector<graph::node_id>{0, 1, 3}));
  EXPECT_EQ(subs[1], (std::vector<graph::node_id>{0, 2, 3}));
}

TEST(Omega, PaperFig1bUk) {
  const graph::digraph g = graph::paper_fig1b();
  dispute_record r;
  r.add_dispute(1, 2);
  EXPECT_EQ(compute_uk(g, 1, r), 2);  // the paper's U_k = 2
  EXPECT_EQ(compute_rho(compute_uk(g, 1, r)), 1);  // rho_k = U_k/2
}

TEST(Omega, U1OfFig1a) {
  // Without disputes: subgraph {2,3,4} (0-based {1,2,3}) is the 2-path with
  // weight-2 edges -> pairwise cut 2; triangles give 4. U_1 = 2.
  EXPECT_EQ(compute_uk(graph::paper_fig1a(), 1, dispute_record{}), 2);
}

TEST(Omega, RemovedNodesShrinkTheUniverseOfSubsets) {
  graph::digraph g = graph::complete(5);
  g.remove_node(4);
  // target size n - f = 5 - 1 = 4; only {0,1,2,3} remains.
  const auto subs = omega_subgraphs(g, 1, dispute_record{});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].size(), 4u);
}

TEST(Omega, EmptyWhenTooFewCleanNodes) {
  const graph::digraph g = graph::complete(4);
  dispute_record r;
  // Every pair disputes: no 3-subset is clean.
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) r.add_dispute(a, b);
  EXPECT_TRUE(omega_subgraphs(g, 1, r).empty());
  EXPECT_EQ(compute_uk(g, 1, r), 0);
}

TEST(Omega, ComputeRhoFloorsAtOne) {
  EXPECT_EQ(compute_rho(0), 1);
  EXPECT_EQ(compute_rho(1), 1);
  EXPECT_EQ(compute_rho(2), 1);
  EXPECT_EQ(compute_rho(5), 2);
  EXPECT_EQ(compute_rho(8), 4);
}

TEST(Omega, CompleteGraphUk) {
  // K7 with unit bidirectional links: any 5-subset is complete on 5 nodes
  // with weight-2 edges -> pairwise min cut 2*4 = 8.
  EXPECT_EQ(compute_uk(graph::complete(7), 2, dispute_record{}), 8);
}

}  // namespace
}  // namespace nab::core
