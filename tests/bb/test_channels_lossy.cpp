// channel_plan over erasure links: direct links ride the network ARQ
// (retransmit until delivered or degrade to a missing message), emulated
// multi-hop routes succeed iff every hop of at least one surviving path
// does, and the inert "zero" model leaves delivery and accounting exactly
// as the clean simulator's.

#include <gtest/gtest.h>

#include "bb/channels.hpp"
#include "graph/generators.hpp"
#include "sim/link_faults.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace nab::bb {
namespace {

TEST(ChannelsLossy, DirectLinkSurvivesViaRetransmission) {
  // p = 0.5 flat: with a 12-retry budget every message still lands
  // (exhaustion odds 2^-13 per message, and the drop sequence is fixed by
  // the seed anyway).
  sim::link_fault_model m(sim::parse_loss_spec("0.5,0.5,0,1"), 21);
  sim::scoped_link_faults scope(&m);
  const graph::digraph g = graph::complete(3, 2);
  sim::trace t;
  sim::network net(g);
  net.attach_trace(&t);
  sim::fault_set faults(3);
  channel_plan plan(g, 0);
  int delivered = 0;
  std::uint64_t clean_bits = 0;
  for (int round = 0; round < 50; ++round) {
    plan.unicast(0, 1, {static_cast<std::uint64_t>(round)}, 10);
    plan.end_round(net, faults);
    delivered += static_cast<int>(plan.inbox(1).size());
    clean_bits += 10;
  }
  EXPECT_EQ(delivered, 50);
  // Retransmissions cost real wire bits beyond the clean accounting.
  EXPECT_GT(t.link_total(0, 1), clean_bits);
}

TEST(ChannelsLossy, DeadLinkDegradesToMissingMessage) {
  // p = 1 in both states: the retry budget exhausts and the message is
  // simply absent — no crash, no phantom delivery.
  sim::link_fault_model m(sim::parse_loss_spec("1,1,0,1"), 5);
  sim::scoped_link_faults scope(&m);
  const graph::digraph g = graph::complete(3, 2);
  sim::trace t;
  sim::network net(g);
  net.attach_trace(&t);
  sim::fault_set faults(3);
  channel_plan plan(g, 0);
  plan.unicast(0, 1, {123}, 10);
  plan.end_round(net, faults);
  EXPECT_TRUE(plan.inbox(1).empty());
  // The budget was still paid for: initial + retry_budget charges.
  EXPECT_EQ(t.link_total(0, 1), 10u * 13);
}

TEST(ChannelsLossy, EmulatedRoutesSurviveWhileAnyPathDelivers) {
  // K5 minus the 0<->3 link: 3 node-disjoint multi-hop paths. Moderate loss
  // with ARQ keeps each hop alive, so the majority vote sees all copies.
  sim::link_fault_model m(sim::parse_loss_spec("bursty"), 31);
  sim::scoped_link_faults scope(&m);
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::network net(g);
  sim::fault_set faults(5);
  channel_plan plan(g, 1);
  int delivered = 0;
  for (int round = 0; round < 25; ++round) {
    plan.unicast(0, 3, {42}, 8);
    plan.end_round(net, faults);
    for (const sim::message& msg : plan.inbox(3)) {
      EXPECT_EQ(msg.payload, (sim::payload{42}));
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 25);
}

TEST(ChannelsLossy, AllPathsDeadMeansNoDelivery) {
  sim::link_fault_model m(sim::parse_loss_spec("1,1,0,1"), 5);
  sim::scoped_link_faults scope(&m);
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::network net(g);
  sim::fault_set faults(5);
  channel_plan plan(g, 1);
  plan.unicast(0, 3, {42}, 8);
  plan.end_round(net, faults);
  EXPECT_TRUE(plan.inbox(3).empty());
  // First hops pay their exhausted budgets; hops past a failure are never
  // charged (each first hop 0->relay exists in K5 minus one pair).
  EXPECT_GT(net.total_bits(), 0u);
}

TEST(ChannelsLossy, ZeroModelMatchesCleanRunExactly) {
  // The inert preset attached vs no model at all: identical deliveries,
  // identical per-link bits, identical round times — the byte-identity
  // guard at the channel layer.
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  sim::fault_set faults(5);

  sim::trace clean_trace, lossy_trace;
  sim::network clean_net(g);
  clean_net.attach_trace(&clean_trace);
  channel_plan clean_plan(g, 1);
  clean_plan.unicast(0, 3, {11, 22}, 16);
  clean_plan.unicast(2, 4, {33}, 4);
  const double clean_time = clean_plan.end_round(clean_net, faults);

  sim::link_fault_model zero(sim::parse_loss_spec("zero"), 77);
  sim::scoped_link_faults scope(&zero);
  sim::network lossy_net(g);
  lossy_net.attach_trace(&lossy_trace);
  channel_plan lossy_plan(g, 1);
  lossy_plan.unicast(0, 3, {11, 22}, 16);
  lossy_plan.unicast(2, 4, {33}, 4);
  const double zero_time = lossy_plan.end_round(lossy_net, faults);

  EXPECT_DOUBLE_EQ(clean_time, zero_time);
  EXPECT_EQ(clean_net.total_bits(), lossy_net.total_bits());
  ASSERT_EQ(clean_plan.inbox(3).size(), lossy_plan.inbox(3).size());
  ASSERT_EQ(lossy_plan.inbox(3).size(), 1u);
  EXPECT_EQ(clean_plan.inbox(3)[0].payload, lossy_plan.inbox(3)[0].payload);
  ASSERT_EQ(lossy_plan.inbox(4).size(), 1u);
  EXPECT_EQ(lossy_plan.inbox(4)[0].payload, (sim::payload{33}));
  for (graph::node_id u = 0; u < 5; ++u)
    for (graph::node_id v = 0; v < 5; ++v)
      if (g.has_edge(u, v)) {
        EXPECT_EQ(clean_trace.link_total(u, v), lossy_trace.link_total(u, v))
            << u << "->" << v;
      }
}

}  // namespace
}  // namespace nab::bb
