// Parameterized brute-force cross-checks of the graph substrate: Dinic
// against exhaustive cut enumeration, vertex connectivity against exhaustive
// separator search, Gomory-Hu against direct flows, Stoer-Wagner against
// pairwise flows, and Edmonds packing feasibility — across seeded random
// graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/gomory_hu.hpp"
#include "graph/maxflow.hpp"
#include "graph/mincut.hpp"
#include "graph/tree_packing.hpp"
#include "util/rng.hpp"

namespace nab::graph {
namespace {

/// Exhaustive s-t min cut: iterate every subset containing s, excluding t.
capacity_t brute_force_st_cut(const digraph& g, node_id s, node_id t) {
  const auto nodes = g.active_nodes();
  std::vector<node_id> others;
  for (node_id v : nodes)
    if (v != s && v != t) others.push_back(v);
  capacity_t best = std::numeric_limits<capacity_t>::max();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << others.size()); ++mask) {
    std::vector<bool> in_s(static_cast<std::size_t>(g.universe()), false);
    in_s[static_cast<std::size_t>(s)] = true;
    for (std::size_t i = 0; i < others.size(); ++i)
      if (mask & (std::uint64_t{1} << i)) in_s[static_cast<std::size_t>(others[i])] = true;
    capacity_t cut = 0;
    for (const edge& e : g.edges())
      if (in_s[static_cast<std::size_t>(e.from)] && !in_s[static_cast<std::size_t>(e.to)])
        cut += e.cap;
    best = std::min(best, cut);
  }
  return best;
}

/// Exhaustive vertex connectivity: smallest removal set disconnecting s
/// from t (directed), capped at n.
int brute_force_vertex_connectivity(const digraph& g, node_id s, node_id t) {
  if (g.has_edge(s, t)) {
    // Remove the direct edge and recurse conceptually: the split-graph
    // definition counts it as one extra disjoint path.
    digraph g2 = g;
    g2.remove_edge(s, t);
    return 1 + brute_force_vertex_connectivity(g2, s, t);
  }
  const auto nodes = g.active_nodes();
  std::vector<node_id> others;
  for (node_id v : nodes)
    if (v != s && v != t) others.push_back(v);
  auto reaches = [&](const digraph& h) {
    // BFS s -> t.
    std::vector<bool> seen(static_cast<std::size_t>(h.universe()), false);
    std::vector<node_id> queue{s};
    seen[static_cast<std::size_t>(s)] = true;
    while (!queue.empty()) {
      const node_id v = queue.back();
      queue.pop_back();
      if (v == t) return true;
      for (node_id w : h.out_neighbors(v))
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          queue.push_back(w);
        }
    }
    return false;
  };
  for (std::size_t k = 0; k <= others.size(); ++k) {
    // Try every removal subset of size k.
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      digraph h = g;
      for (std::size_t i : idx) h.remove_node(others[i]);
      if (!reaches(h)) return static_cast<int>(k);
      // Next combination.
      std::size_t pos = k;
      while (pos > 0) {
        --pos;
        if (idx[pos] + (k - pos) < others.size()) {
          ++idx[pos];
          for (std::size_t j = pos + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
          break;
        }
        if (pos == 0) goto next_k;
      }
      if (k == 0) break;
    }
  next_k:;
  }
  return static_cast<int>(others.size()) + 1;  // unseparable
}

class GraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphProperty, DinicMatchesBruteForceCuts) {
  rng rand(GetParam());
  const digraph g = erdos_renyi(6, 0.5, 1, 7, rand);
  for (node_id t = 1; t < 6; ++t)
    EXPECT_EQ(min_cut_value(g, 0, t), brute_force_st_cut(g, 0, t)) << "t=" << t;
}

TEST_P(GraphProperty, VertexConnectivityMatchesBruteForce) {
  rng rand(GetParam() ^ 0x11);
  const digraph g = erdos_renyi(6, 0.45, 1, 2, rand);
  for (node_id t : {1, 3, 5})
    EXPECT_EQ(vertex_connectivity(g, 0, t), brute_force_vertex_connectivity(g, 0, t))
        << "t=" << t;
}

TEST_P(GraphProperty, GomoryHuMatchesDirectFlows) {
  rng rand(GetParam() ^ 0x22);
  const ugraph u = to_undirected(erdos_renyi(7, 0.5, 1, 5, rand));
  const gomory_hu_tree tree(u);
  const auto nodes = u.active_nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      EXPECT_EQ(tree.min_cut(nodes[i], nodes[j]),
                min_cut_value_undirected(u, nodes[i], nodes[j]));
}

TEST_P(GraphProperty, StoerWagnerIsMinOfGomoryHu) {
  rng rand(GetParam() ^ 0x33);
  const ugraph u = to_undirected(erdos_renyi(7, 0.5, 1, 4, rand));
  EXPECT_EQ(global_min_cut(u).value, gomory_hu_tree(u).minimum_pair_cut());
}

TEST_P(GraphProperty, EdmondsPackingAlwaysFeasibleAtGamma) {
  rng rand(GetParam() ^ 0x44);
  const digraph g = erdos_renyi(6, 0.5, 1, 3, rand);
  const auto gamma = broadcast_mincut(g, 0);
  ASSERT_GE(gamma, 1);
  const auto trees = pack_arborescences(g, 0, static_cast<int>(gamma));
  ASSERT_EQ(trees.size(), static_cast<std::size_t>(gamma));
  // Validate capacities and spanning per tree.
  std::vector<capacity_t> use(static_cast<std::size_t>(36), 0);
  for (const auto& t : trees) {
    EXPECT_EQ(t.edges.size(), g.active_nodes().size() - 1);
    for (const edge& e : t.edges) {
      EXPECT_TRUE(g.has_edge(e.from, e.to));
      use[static_cast<std::size_t>(e.from) * 6 + e.to] += 1;
    }
  }
  for (const edge& e : g.edges())
    EXPECT_LE(use[static_cast<std::size_t>(e.from) * 6 + e.to], e.cap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace nab::graph
