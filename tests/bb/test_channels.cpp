#include "bb/channels.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

TEST(Channels, DirectLinkUsedWhenPresent) {
  const graph::digraph g = graph::complete(4);
  channel_plan plan(g, 1);
  const auto& r = plan.routes(0, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<graph::node_id>{0, 3}));
}

TEST(Channels, MissingLinkEmulatedWithDisjointPaths) {
  // Remove the direct 0<->3 link from K5; emulation must find 2f+1 = 3
  // node-disjoint paths.
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  channel_plan plan(g, 1);
  const auto& r = plan.routes(0, 3);
  ASSERT_EQ(r.size(), 3u);
  std::vector<int> interior(5, 0);
  for (const auto& p : r) {
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 3);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) ++interior[static_cast<std::size_t>(p[i])];
  }
  for (int v = 0; v < 5; ++v) EXPECT_LE(interior[static_cast<std::size_t>(v)], 1);
}

TEST(Channels, InsufficientConnectivityThrows) {
  // Ring is only 2-connected: f=1 needs 3 disjoint paths for non-adjacent
  // pairs.
  EXPECT_THROW(channel_plan(graph::ring(6), 1), nab::error);
}

TEST(Channels, DeliveryAndAccounting) {
  const graph::digraph g = graph::complete(3, 2);
  sim::trace wire;
  sim::network net(g);
  net.attach_trace(&wire);
  sim::fault_set faults(3);
  channel_plan plan(g, 0);
  plan.unicast(0, 1, {123}, 10);
  const double t = plan.end_round(net, faults);
  EXPECT_DOUBLE_EQ(t, 5.0);  // 10 bits on a capacity-2 link
  ASSERT_EQ(plan.inbox(1).size(), 1u);
  EXPECT_EQ(plan.inbox(1)[0].payload, (sim::payload{123}));
  EXPECT_EQ(wire.link_total(0, 1), 10u);
  EXPECT_EQ(net.total_bits(), 10u);
}

TEST(Channels, EmulatedPathChargesEveryHop) {
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::network net(g);
  sim::fault_set faults(5);
  channel_plan plan(g, 1);
  plan.unicast(0, 3, {7}, 6);
  plan.end_round(net, faults);
  // 3 disjoint paths, each with >= 2 hops, each hop charged 6 bits.
  EXPECT_GE(net.total_bits(), 6u * 6u);
  ASSERT_EQ(plan.inbox(3).size(), 1u);
  EXPECT_EQ(plan.inbox(3)[0].payload, (sim::payload{7}));
}

/// Replaces every relayed copy with a forged payload.
class forger : public relay_adversary {
 public:
  std::optional<sim::payload> tamper(
      const std::vector<graph::node_id>&, const sim::message&) override {
    return sim::payload{666};
  }
};

TEST(Channels, MajorityDefeatsSingleCorruptRelay) {
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::network net(g);
  sim::fault_set faults(5, {1});  // node 1 may relay one of the three paths
  channel_plan plan(g, 1);
  forger adv;
  plan.unicast(0, 3, {42}, 8);
  plan.end_round(net, faults, &adv);
  ASSERT_EQ(plan.inbox(3).size(), 1u);
  // Two honest paths out of three: majority yields the true payload.
  EXPECT_EQ(plan.inbox(3)[0].payload, (sim::payload{42}));
}

TEST(Channels, TamperWinsOnlyWithMajorityOfPaths) {
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::network net(g);
  // f=1 plan but TWO corrupt relays (over budget): forgery can win.
  sim::fault_set faults(5, {1, 2});
  channel_plan plan(g, 1);
  forger adv;
  plan.unicast(0, 3, {42}, 8);
  plan.end_round(net, faults, &adv);
  ASSERT_EQ(plan.inbox(3).size(), 1u);
  EXPECT_EQ(plan.inbox(3)[0].payload, (sim::payload{666}));
}

TEST(Channels, FlatRouteTableMatchesPerPairReference) {
  // The flat offset-indexed route table must decode, pair for pair, to
  // exactly the path sets the seed's per-pair builder produced: a direct
  // link is the single two-node path, and every emulated pair carries the
  // 2f+1 node-disjoint paths of graph::node_disjoint_paths (the retained
  // per-pair reference the warm-started finder must replicate byte for
  // byte).
  rng rand(99);
  const std::vector<graph::digraph> graphs = {
      graph::paper_fig1a(),  graph::ring(6, 2),       graph::hypercube(3, 1),
      graph::hypercube(4, 2), graph::clustered_wan(3, 3, 2, 1),
      graph::erdos_renyi(9, 0.6, 1, 2, rand)};
  for (const graph::digraph& g : graphs) {
    for (int f : {0, 1}) {
      if (!graph::global_vertex_connectivity_at_least(g, 2 * f + 1)) continue;
      const auto table = channel_plan::build_routes(g, f);
      std::uint64_t pairs = 0;
      for (graph::node_id u = 0; u < g.universe(); ++u)
        for (graph::node_id v = 0; v < g.universe(); ++v) {
          if (u == v || !g.is_active(u) || !g.is_active(v)) {
            EXPECT_TRUE(table.at(u, v).empty());
            continue;
          }
          ++pairs;
          const auto got = table.decode(u, v);
          if (g.has_edge(u, v)) {
            ASSERT_EQ(got.size(), 1u);
            EXPECT_EQ(got[0], (std::vector<graph::node_id>{u, v}));
          } else {
            EXPECT_EQ(got, graph::node_disjoint_paths(g, u, v, 2 * f + 1));
          }
        }
      EXPECT_EQ(table.stats().pairs, pairs);
    }
  }
}

TEST(Channels, WarmFinderMatchesColdReferencePerPair) {
  // One warm-started residual network serving many sinks must return the
  // same paths as a cold per-pair computation.
  rng rand(7);
  const graph::digraph g = graph::erdos_renyi(10, 0.5, 1, 2, rand);
  for (int k : {1, 3}) {
    if (!graph::global_vertex_connectivity_at_least(g, k)) continue;
    for (graph::node_id u = 0; u < g.universe(); ++u) {
      graph::disjoint_path_finder finder(g);
      for (graph::node_id v = 0; v < g.universe(); ++v) {
        if (u == v) continue;
        EXPECT_EQ(finder.find(u, v, k), graph::node_disjoint_paths(g, u, v, k))
            << "pair " << u << "->" << v << " k=" << k;
      }
    }
  }
}

TEST(Channels, ZeroBitUnicastWithPayloadThrows) {
  // Content must be charged, or it would cross every hop for free, on
  // direct and emulated channels alike. Empty zero-bit messages
  // (absent/default values) stay legal.
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  channel_plan plan(g, 1);
  EXPECT_THROW(plan.unicast(0, 3, {7}, 0), nab::error);
  EXPECT_THROW(plan.unicast(0, 1, {7}, 0), nab::error);
  EXPECT_NO_THROW(plan.unicast(0, 3, {}, 0));
}

TEST(Channels, EndRoundOnAnotherTopologyThrows) {
  // A route hop the network does not carry is a nab::error, as it was when
  // every hop went through network::charge: never an abort, never bits
  // dropped silently.
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  channel_plan plan(g, 1);
  const auto routes = plan.routes(0, 3);
  ASSERT_EQ(routes.size(), 3u);
  const auto path = routes[0];
  ASSERT_EQ(path.size(), 3u);  // 0 -> r -> 3: the relay's hop r -> 3 goes missing
  graph::digraph lacking = g;
  lacking.remove_edge(path[1], path[2]);
  sim::network net(lacking);
  sim::fault_set faults(5);
  plan.unicast(0, 3, {7}, 6);
  EXPECT_THROW(plan.end_round(net, faults), nab::error);

  // A network over another node universe cannot match the plan's link ids.
  channel_plan direct(graph::complete(3), 0);
  sim::network wider(graph::complete(4));
  direct.unicast(0, 1, {1}, 1);
  EXPECT_THROW(direct.end_round(wider, sim::fault_set(4)), nab::error);
}

/// The per-hop charging the clean bulk path replaces: network::charge on
/// every hop of every route, in path order, then the step.
double charge_per_hop(const channel_plan& plan, sim::network& net,
                      const std::vector<sim::message>& batch) {
  for (const sim::message& m : batch)
    for (const route_table::path_view path : plan.routes(m.from, m.to))
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        net.charge(path[i], path[i + 1], m.bits);
  return net.end_step();
}

/// Runs `batches` as rounds through end_round on one network and through
/// charge_per_hop on another; tau, link loads, totals and the exact trace
/// must agree. Every message must also arrive with its payload.
void expect_clean_charging_matches_reference(
    const graph::digraph& g, int f, const sim::fault_set& faults,
    relay_adversary* adv, const std::vector<std::vector<sim::message>>& batches) {
  channel_plan plan(g, f);
  sim::trace bulk_trace, ref_trace;
  sim::network bulk(g), ref(g);
  bulk.attach_trace(&bulk_trace);
  ref.attach_trace(&ref_trace);
  for (const auto& batch : batches) {
    for (const sim::message& m : batch) plan.unicast(m.from, m.to, m.payload, m.bits);
    EXPECT_EQ(plan.end_round(bulk, faults, adv), charge_per_hop(plan, ref, batch));
    std::vector<std::size_t> delivered(static_cast<std::size_t>(g.universe()), 0);
    for (const sim::message& m : batch) {
      const auto& box = plan.inbox(m.to);
      const std::size_t k = delivered[static_cast<std::size_t>(m.to)]++;
      ASSERT_LT(k, box.size());
      EXPECT_EQ(box[k].from, m.from);
      EXPECT_EQ(box[k].payload, m.payload) << m.from << "->" << m.to;
    }
  }
  for (graph::node_id u = 0; u < g.universe(); ++u)
    for (graph::node_id v = 0; v < g.universe(); ++v)
      EXPECT_EQ(bulk_trace.link_total(u, v), ref_trace.link_total(u, v))
          << u << "->" << v;
  EXPECT_EQ(bulk.total_bits(), ref.total_bits());
  EXPECT_EQ(bulk.elapsed(), ref.elapsed());
  EXPECT_EQ(bulk_trace.events(), ref_trace.events());
}

/// All-to-all and random sparse unicast batches with mixed bits.
std::vector<std::vector<sim::message>> mixed_batches(const graph::digraph& g, rng& rand) {
  const std::vector<graph::node_id> nodes = g.active_nodes();
  std::vector<sim::message> all, sparse;
  for (graph::node_id u : nodes)
    for (graph::node_id v : nodes)
      if (u != v) {
        const std::uint64_t bits = 1 + rand.below(64);
        all.push_back({u, v, {bits * 3 + 1}, bits});
      }
  for (int i = 0; i < 3 * static_cast<int>(nodes.size()); ++i) {
    const graph::node_id u = nodes[rand.below(nodes.size())];
    const graph::node_id v = nodes[rand.below(nodes.size())];
    if (u == v) continue;
    const std::uint64_t bits = rand.below(1000);
    sparse.push_back({u, v, bits == 0 ? sim::payload{} : sim::payload{bits, bits ^ 5}, bits});
  }
  return {all, sparse, all};
}

TEST(Channels, CleanChargingMatchesPerHopReference) {
  rng rand(13);
  const std::vector<std::pair<graph::digraph, int>> cases = {
      {graph::hypercube(4), 1},
      {graph::hypercube(5, 2), 2},
      {graph::clustered_wan(3, 3, 4, 1), 1},
      {graph::paper_fig1a(), 0}};
  for (const auto& [g, f] : cases) {
    ASSERT_TRUE(graph::global_vertex_connectivity_at_least(g, 2 * f + 1));
    SCOPED_TRACE("n=" + std::to_string(g.universe()) + " f=" + std::to_string(f));
    expect_clean_charging_matches_reference(g, f, sim::fault_set(g.universe()), nullptr,
                                            mixed_batches(g, rand));
  }

  // Corrupt relays with a forging adversary: every compromised copy is
  // forged, charged like any other, and loses the majority vote (at most f
  // of the 2f+1 node-disjoint paths cross the f corrupt nodes).
  class counting_forger : public forger {
   public:
    std::optional<sim::payload> tamper(const std::vector<graph::node_id>& path,
                                       const sim::message& m) override {
      ++calls;
      return forger::tamper(path, m);
    }
    std::size_t calls = 0;
  };
  const graph::digraph cube = graph::hypercube(5, 2);
  const sim::fault_set faults(32, {5, 18});
  channel_plan plan(cube, 2);
  std::vector<sim::message> honest;
  std::size_t compromised_paths = 0;
  for (graph::node_id u = 0; u < 32; ++u)
    for (graph::node_id v = 0; v < 32; ++v) {
      if (u == v || faults.is_corrupt(u) || faults.is_corrupt(v)) continue;
      honest.push_back({u, v, {static_cast<std::uint64_t>(u * 32 + v)}, 3});
      for (const route_table::path_view path : plan.routes(u, v))
        for (std::size_t i = 1; i + 1 < path.size(); ++i)
          if (faults.is_corrupt(path[i])) {
            ++compromised_paths;
            break;
          }
    }
  ASSERT_GT(compromised_paths, 0u);
  counting_forger adv;
  expect_clean_charging_matches_reference(cube, 2, faults, &adv, {honest});
  EXPECT_EQ(adv.calls, compromised_paths);
}

TEST(Channels, RoundsClearInboxes) {
  const graph::digraph g = graph::complete(3);
  sim::network net(g);
  sim::fault_set faults(3);
  channel_plan plan(g, 0);
  plan.unicast(0, 1, {1}, 1);
  plan.end_round(net, faults);
  EXPECT_EQ(plan.inbox(1).size(), 1u);
  plan.end_round(net, faults);
  EXPECT_TRUE(plan.inbox(1).empty());
}

}  // namespace
}  // namespace nab::bb
