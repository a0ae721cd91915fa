#include "core/phase1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

std::vector<word> random_words(std::size_t n, rng& rand) {
  std::vector<word> out(n);
  for (auto& w : out) w = static_cast<word>(rand.below(65536));
  return out;
}

TEST(Phase1, ChunkSplitRoundTrip) {
  rng rand(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto input = random_words(1 + rand.below(40), rand);
    const int shares = static_cast<int>(1 + rand.below(5));
    const auto chunks = split_into_chunks(input, shares);
    EXPECT_EQ(chunks.size(), static_cast<std::size_t>(shares));
    EXPECT_EQ(assemble_chunks(chunks, input.size()), input);
    // Every chunk holds ceil(L/shares) words, in order; the tail is zero.
    const std::size_t per = (input.size() + shares - 1) / shares;
    EXPECT_EQ(chunk_words(input.size(), shares), per);
    std::vector<word> flat;
    for (const chunk& c : chunks) {
      EXPECT_EQ(c.size(), per);
      flat.insert(flat.end(), c.begin(), c.end());
    }
    std::vector<word> padded = input;
    padded.resize(per * static_cast<std::size_t>(shares), 0);
    EXPECT_EQ(flat, padded);
  }
  // L < shares: one word per chunk, and the chunks past L are zero.
  const std::vector<word> short_input{7, 8};
  const auto few = split_into_chunks(short_input, 5);
  ASSERT_EQ(few.size(), 5u);
  EXPECT_EQ(few[0], chunk{7});
  EXPECT_EQ(few[1], chunk{8});
  for (std::size_t t = 2; t < few.size(); ++t) EXPECT_EQ(few[t], chunk{0});
  EXPECT_EQ(assemble_chunks(few, 2), short_input);
  // Assembly truncates to `total` and zero-fills past the chunks.
  EXPECT_EQ(assemble_chunks(few, 1), (std::vector<word>{7}));
  EXPECT_EQ(assemble_chunks(few, 7), (std::vector<word>{7, 8, 0, 0, 0, 0, 0}));
  // L = 0: empty chunks, empty value.
  const auto none = split_into_chunks({}, 3);
  ASSERT_EQ(none.size(), 3u);
  for (const chunk& c : none) EXPECT_TRUE(c.empty());
  EXPECT_TRUE(assemble_chunks(none, 0).empty());
}

TEST(Phase1, FaultFreeDeliveryOnPaperFig2) {
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(2);
  const auto input = random_words(8, rand);
  const auto r = run_phase1(net, g, faults, 0, input, trees);
  for (graph::node_id v = 0; v < 4; ++v)
    EXPECT_EQ(r.received[static_cast<std::size_t>(v)], input) << "node " << v;
}

TEST(Phase1, TimeIsLOverGamma) {
  // 8 words = 128 bits over gamma=2 trees: chunk = 64 bits; every tree edge
  // carries 64 bits. Link (0,1) has capacity 2 and hosts both trees -> 128
  // bits / 2 = 64 = L/gamma. All other links: 64 bits / 1.
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(3);
  const auto input = random_words(8, rand);
  const auto r = run_phase1(net, g, faults, 0, input, trees);
  EXPECT_DOUBLE_EQ(r.time, 64.0);  // L/gamma = 128/2

  // Appendix A's knee on K_6 with unit links (gamma = 5): t <= gamma trees
  // take L/t up to chunk rounding, and a sixth tree does not pack.
  const graph::digraph k6 = graph::complete(6, 1);
  ASSERT_EQ(graph::broadcast_mincut(k6, 0), 5);
  constexpr std::size_t words = 2048;  // L = 32 Kbit
  const auto value = random_words(words, rand);
  for (int t = 1; t <= 5; ++t) {
    sim::network net6(k6);
    const auto r6 = run_phase1(net6, k6, sim::fault_set(6), 0, value,
                               graph::pack_arborescences(k6, 0, t));
    EXPECT_DOUBLE_EQ(r6.time, 16.0 * static_cast<double>((words + t - 1) / t))
        << t << " trees";
  }
  EXPECT_THROW(graph::pack_arborescences(k6, 0, 6), nab::error);
}

TEST(Phase1, StoreAndForwardCostsDepthTimesChunk) {
  const graph::digraph g = graph::path_of_cliques(3, 2, 1);
  const auto gamma = graph::broadcast_mincut(g, 0);
  const auto trees = graph::pack_arborescences(g, 0, static_cast<int>(gamma));
  rng rand(4);
  const auto input = random_words(6, rand);

  sim::network net_ct(g);
  sim::network net_sf(g);
  sim::fault_set faults(6);
  const auto ct =
      run_phase1(net_ct, g, faults, 0, input, trees, nullptr, propagation_mode::cut_through);
  const auto sf = run_phase1(net_sf, g, faults, 0, input, trees, nullptr,
                             propagation_mode::store_and_forward);
  EXPECT_GE(phase1_levels(trees, 0, 6).size(), 2u);
  EXPECT_GT(sf.time, ct.time);          // store-and-forward pays per hop
  EXPECT_EQ(ct.received, sf.received);  // same data either way
}

TEST(Phase1, LevelsBucketEveryHopParentFirstInTreeOrder) {
  // Every tree edge appears once, at the level where its sender already
  // holds the share, and within a level tree-major with each tree's edges
  // in order — the transmission order both Phase-1 drivers use.
  const graph::digraph g = graph::path_of_cliques(3, 2, 1);
  const auto trees = graph::pack_arborescences(
      g, 0, static_cast<int>(graph::broadcast_mincut(g, 0)));
  const auto levels = phase1_levels(trees, 0, g.universe());
  std::size_t hops = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    std::pair<int, std::size_t> last{-1, 0};
    for (const phase1_hop& h : levels[i]) {
      ++hops;
      const auto& edges = trees[static_cast<std::size_t>(h.tree)].edges;
      const auto at = static_cast<std::size_t>(
          std::find_if(edges.begin(), edges.end(),
                       [&](const graph::edge& e) { return e.from == h.from && e.to == h.to; }) -
          edges.begin());
      ASSERT_LT(at, edges.size());
      EXPECT_LT(last, std::make_pair(h.tree, at)) << "level " << i;
      last = {h.tree, at};
      const bool fed = i == 0 ? h.from == 0
                              : std::any_of(levels[i - 1].begin(), levels[i - 1].end(),
                                            [&](const phase1_hop& p) {
                                              return p.tree == h.tree && p.to == h.from;
                                            });
      EXPECT_TRUE(fed) << "level " << i << ": " << h.from << "->" << h.to;
    }
  }
  std::size_t tree_edges = 0;
  for (const auto& t : trees) tree_edges += t.edges.size();
  EXPECT_EQ(hops, tree_edges);
  EXPECT_GE(levels.size(), 2u);
}

TEST(Phase1, CorruptRelayPoisonsOnlyItsSubtrees) {
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  sim::network net(g);
  sim::fault_set faults(4, {1});
  phase1_corruptor adv;
  rng rand(5);
  const auto input = random_words(8, rand);
  const auto r = run_phase1(net, g, faults, 0, input, trees, &adv);
  EXPECT_EQ(r.received[0], input);  // source unaffected
  // Node 3 receives one share via node 1 on some tree: must be corrupted.
  EXPECT_NE(r.received[3], input);
}

TEST(Phase1, EquivocatingSourceSplitsReceivers) {
  // One explicit star arborescence so the equivocation target is a direct
  // child deterministically.
  const graph::digraph g = graph::complete(4);
  graph::spanning_tree star;
  star.edges = {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}};
  sim::network net(g);
  sim::fault_set faults(4, {0});
  equivocating_source adv({2});
  rng rand(6);
  const auto input = random_words(9, rand);
  const auto r = run_phase1(net, g, faults, 0, input, {star}, &adv);
  EXPECT_EQ(r.received[1], input);
  EXPECT_EQ(r.received[3], input);
  EXPECT_NE(r.received[2], input);  // the minority child got a forged value
}

TEST(Phase1, TranscriptsMatchDeliveries) {
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(7);
  const auto input = random_words(4, rand);
  const auto r = run_phase1(net, g, faults, 0, input, trees);
  for (std::size_t t = 0; t < trees.size(); ++t)
    for (const graph::edge& e : trees[t].edges) {
      const auto key = std::make_tuple(static_cast<int>(t), e.from, e.to);
      const auto& sent = r.truth[static_cast<std::size_t>(e.from)].p1_sent;
      const auto& rcvd = r.truth[static_cast<std::size_t>(e.to)].p1_received;
      ASSERT_TRUE(sent.count(key));
      ASSERT_TRUE(rcvd.count(key));
      EXPECT_EQ(sent.at(key), rcvd.at(key));
    }
}

}  // namespace
}  // namespace nab::core
