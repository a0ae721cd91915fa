#include "graph/tree_packing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::graph {
namespace {

/// Checks the Edmonds packing invariants: every tree spans the active nodes
/// as an arborescence rooted at `root`, and combined edge usage respects
/// capacities.
void check_arborescence_packing(const digraph& g, node_id root,
                                const std::vector<spanning_tree>& trees) {
  const auto nodes = g.active_nodes();
  std::vector<capacity_t> usage(
      static_cast<std::size_t>(g.universe()) * g.universe(), 0);
  for (const spanning_tree& t : trees) {
    ASSERT_EQ(t.edges.size(), nodes.size() - 1) << "tree must span";
    const auto parents = t.parents(g.universe());
    EXPECT_EQ(parents[static_cast<std::size_t>(root)], -1);
    for (node_id v : nodes) {
      if (v == root) continue;
      // Walk to the root; must terminate.
      node_id cur = v;
      int guard = 0;
      while (cur != root) {
        ASSERT_LE(++guard, g.universe()) << "cycle in arborescence";
        cur = parents[static_cast<std::size_t>(cur)];
        ASSERT_GE(cur, 0) << "node " << v << " not connected to root";
      }
    }
    for (const edge& e : t.edges) {
      EXPECT_TRUE(g.has_edge(e.from, e.to));
      usage[static_cast<std::size_t>(e.from) * g.universe() + e.to] += 1;
    }
  }
  for (const edge& e : g.edges())
    EXPECT_LE(usage[static_cast<std::size_t>(e.from) * g.universe() + e.to], e.cap)
        << "capacity violated on " << e.from << "->" << e.to;
}

/// The from-scratch Lovász construction (Appendix A), the oracle the
/// incremental packer is pinned against. Each tree grows from the root:
/// scan tails u in the tree, then heads v outside it, both in ascending id
/// order, and take the first arc (u, v) whose removal keeps MINCUT(root, w)
/// >= the number of trees still to pack for every sink w, every cut
/// recomputed by a fresh max-flow.
std::vector<spanning_tree> lovasz_from_scratch(const digraph& g, node_id root, int k) {
  const std::vector<node_id> nodes = g.active_nodes();
  digraph rem = g;  // capacity not yet used by a tree
  // Takes one unit of (u, v) out of `rem`, and puts it back unless every
  // sink keeps MINCUT(root, w) >= need.
  const auto take_if_safe = [&](node_id u, node_id v, int need) {
    const capacity_t c = rem.cap(u, v);
    rem.remove_edge(u, v);
    if (c > 1) rem.add_edge(u, v, c - 1);
    for (node_id w : nodes)
      if (need > 0 && w != root && min_cut_value(rem, root, w) < need) {
        rem.add_edge(u, v, 1);
        return false;
      }
    return true;
  };
  std::vector<spanning_tree> trees;
  for (int t = 0; t < k; ++t) {
    spanning_tree tree;
    std::vector<bool> in_tree(static_cast<std::size_t>(g.universe()), false);
    in_tree[static_cast<std::size_t>(root)] = true;
    while (tree.edges.size() + 1 < nodes.size()) {
      const std::size_t grown = tree.edges.size();
      for (node_id u : nodes) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        for (node_id v : nodes)
          if (!in_tree[static_cast<std::size_t>(v)] && rem.cap(u, v) > 0 &&
              take_if_safe(u, v, k - t - 1)) {
            tree.edges.push_back({u, v, 1});
            in_tree[static_cast<std::size_t>(v)] = true;
            break;
          }
        if (tree.edges.size() > grown) break;
      }
      if (tree.edges.size() == grown) {
        ADD_FAILURE() << "no safe edge for tree " << t << " of " << k;
        return trees;
      }
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

/// pack_arborescences_lovasz(g, 0, k) equals the oracle edge for edge for
/// every k from 1 to gamma; returns how many packings were compared.
int expect_lovasz_matches_oracle(const digraph& g, const std::string& name) {
  const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
  for (int k = 1; k <= gamma; ++k) {
    const auto inc = pack_arborescences_lovasz(g, 0, k);
    const auto oracle = lovasz_from_scratch(g, 0, k);
    EXPECT_EQ(inc.size(), oracle.size()) << name << " k=" << k;
    for (std::size_t i = 0; i < std::min(inc.size(), oracle.size()); ++i)
      EXPECT_EQ(inc[i].edges, oracle[i].edges) << name << " k=" << k << " tree " << i;
  }
  return gamma;
}

TEST(TreePacking, PaperFig2PacksTwoTrees) {
  // The worked example of Figure 2(c): two unit-capacity spanning trees,
  // link (1,2) used by both.
  const digraph g = paper_fig2();
  const auto trees = pack_arborescences(g, 0, 2);
  check_arborescence_packing(g, 0, trees);
  capacity_t link01_use = 0;
  for (const auto& t : trees)
    for (const edge& e : t.edges)
      if (e.from == 0 && e.to == 1) ++link01_use;
  EXPECT_EQ(link01_use, 2);  // both trees must cross the capacity-2 link
}

TEST(TreePacking, PaperFig1aPacksGammaTrees) {
  const digraph g = paper_fig1a();
  const auto trees = pack_arborescences(g, 0, 2);  // gamma = 2
  check_arborescence_packing(g, 0, trees);
}

TEST(TreePacking, InfeasibleRequestThrows) {
  const digraph g = paper_fig2();  // gamma = 2
  EXPECT_THROW(pack_arborescences(g, 0, 3), nab::error);
}

TEST(TreePacking, CompleteGraphPacksNMinusOne) {
  const digraph g = complete(5, 1);
  // broadcast mincut from any node of K5 with unit links is 4.
  ASSERT_EQ(broadcast_mincut(g, 0), 4);
  const auto trees = pack_arborescences(g, 0, 4);
  check_arborescence_packing(g, 0, trees);
}

TEST(TreePacking, RandomGraphsPackUpToGamma) {
  rng rand(31);
  for (int trial = 0; trial < 12; ++trial) {
    const digraph g = erdos_renyi(6, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1);
    const auto trees = pack_arborescences(g, 0, gamma);
    check_arborescence_packing(g, 0, trees);
  }
}

TEST(TreePacking, LovaszExactPathPacksEverything) {
  // Exercise the exact construction directly (the hybrid's fast path would
  // otherwise shadow it).
  rng rand(37);
  for (int trial = 0; trial < 8; ++trial) {
    const digraph g = erdos_renyi(6, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1);
    const auto trees = pack_arborescences_lovasz(g, 0, gamma);
    check_arborescence_packing(g, 0, trees);
  }
  const auto trees = pack_arborescences_lovasz(paper_fig2(), 0, 2);
  check_arborescence_packing(paper_fig2(), 0, trees);
}

TEST(TreePacking, IncrementalMatchesReferenceOnRegistryShapes) {
  // The registry's topology shapes: the certificate-driven Lovász path must
  // emit exactly the from-scratch construction's trees at every k <= gamma,
  // and the hybrid (whose greedy fast path picks other trees) must still
  // deliver a full, valid packing of gamma arborescences.
  rng rand(2024);
  const std::vector<digraph> graphs = {
      paper_fig1a(),       paper_fig2(),          complete(7, 2),
      ring(5, 2),          ring(8, 1),            hypercube(3, 2),
      hypercube(5, 2),     clustered_wan(3, 3, 2, 1),
      random_regular(10, 6, 1, 2, rand),
      // Fat and skewed capacities: thin bridges, one weak link.
      complete(6, 2),      ring(6, 3),            dumbbell(8, 4, 1),
      complete_with_weak_link(5, 8)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const digraph& g = graphs[i];
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1) << "shape " << i;
    expect_lovasz_matches_oracle(g, "shape " + std::to_string(i));
    const auto fast = pack_arborescences(g, 0, gamma);
    ASSERT_EQ(fast.size(), static_cast<std::size_t>(gamma)) << "shape " << i;
    check_arborescence_packing(g, 0, fast);
  }
}

TEST(TreePacking, IncrementalMatchesReferenceOnRandomGraphs) {
  // Erdos-Renyi fuzz with capacities 1..3: the same exact identity at every
  // k <= gamma, plus a full valid packing from the hybrid.
  rng rand(71);
  int packings = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const digraph g = erdos_renyi(7, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    if (gamma < 1) continue;
    packings += expect_lovasz_matches_oracle(g, "trial " + std::to_string(trial));
    const auto fast = pack_arborescences(g, 0, gamma);
    ASSERT_EQ(fast.size(), static_cast<std::size_t>(gamma)) << "trial " << trial;
    check_arborescence_packing(g, 0, fast);
  }
  EXPECT_GE(packings, 60) << "fuzz must exercise real packings";
}

TEST(TreePacking, StatsCountCertificateWork) {
  pack_stats stats;
  const digraph g = hypercube(4, 2);
  const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
  const auto trees = pack_arborescences(g, 0, gamma, &stats);
  ASSERT_EQ(trees.size(), static_cast<std::size_t>(gamma));
  // Feasibility certification alone visits every sink and augments each
  // certificate up to gamma.
  EXPECT_GE(stats.safety_checks, g.active_nodes().size() - 1);
  EXPECT_GE(stats.flow_augmentations,
            static_cast<std::uint64_t>(gamma) * (g.active_nodes().size() - 1));
}

TEST(TreePacking, HighCapacityEdgeReusedAcrossTrees) {
  // Two nodes joined by a fat edge: k trees all use it.
  digraph g(2);
  g.add_edge(0, 1, 5);
  const auto trees = pack_arborescences(g, 0, 5);
  ASSERT_EQ(trees.size(), 5u);
  for (const auto& t : trees) {
    ASSERT_EQ(t.edges.size(), 1u);
    EXPECT_EQ(t.edges[0].from, 0);
    EXPECT_EQ(t.edges[0].to, 1);
  }
}

TEST(TreePacking, ParentsViewRoundTrips) {
  spanning_tree t;
  t.edges = {{0, 2, 1}, {2, 1, 1}};
  const auto p = t.parents(3);
  EXPECT_EQ(p[0], -1);
  EXPECT_EQ(p[2], 0);
  EXPECT_EQ(p[1], 2);
}

}  // namespace
}  // namespace nab::graph
