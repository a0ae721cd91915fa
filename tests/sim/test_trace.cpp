#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "sim/network.hpp"

namespace nab::sim {
namespace {

TEST(Trace, OneEventPerLinkPerStepAtStepEnd) {
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  net.charge(2, 0, 4);
  net.charge(0, 1, 32);
  net.charge(1, 2, 8);
  net.charge(0, 1, 16);  // a second charge on 0 -> 1 in the same step
  EXPECT_TRUE(t.events().empty());  // nothing is recorded before end_step
  net.end_step();
  net.charge(1, 0, 4);
  net.end_step();
  net.end_step();  // an empty step records nothing

  // Each step's links that carried bits, ascending by link id (u * n + v),
  // not in charge order; the two charges on 0 -> 1 are one event.
  const std::vector<trace_event> want = {
      {0, 0, 1, 48}, {0, 1, 2, 8}, {0, 2, 0, 4}, {1, 1, 0, 4}};
  EXPECT_EQ(t.events(), want);
  EXPECT_EQ(t.link_total(0, 1), 48u);
  EXPECT_EQ(t.link_total(0, 2), 0u);
  EXPECT_EQ(t.total_bits(), 64u);
  EXPECT_EQ(t.total_bits(), net.total_bits());
}

TEST(Trace, RecordsLoadTemplateCharges) {
  // charge_loads is metered like every other charge, so a trace sees the
  // bits of a round charged from load templates.
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  const std::uint32_t links[] = {network::link_index(3, 0, 1),
                                 network::link_index(3, 2, 1)};
  net.require_links(3, links);
  const link_load loads[] = {{links[0], 3}, {links[1], 1}};
  net.charge_loads(loads, 5);
  net.charge_links(links, 2);
  net.end_step();
  const std::vector<trace_event> want = {{0, 0, 1, 3 * 5 + 2}, {0, 2, 1, 5 + 2}};
  EXPECT_EQ(t.events(), want);
  EXPECT_EQ(t.total_bits(), net.total_bits());
}

TEST(Trace, SeesOnlyStepsThatEndWhileAttached) {
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  net.charge(0, 1, 1);
  net.attach_trace(nullptr);  // detached before the step ends
  net.charge(0, 2, 1);
  net.end_step();
  EXPECT_TRUE(t.events().empty());
  net.charge(0, 1, 2);
  net.attach_trace(&t);  // attached before the step ends: sees all of it
  net.end_step();
  EXPECT_EQ(t.events(), (std::vector<trace_event>{{1, 0, 1, 2}}));
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, AmbientTraceAttachesToNewNetworksOnThisThread) {
  EXPECT_EQ(ambient_trace(), nullptr);
  trace t;
  {
    scoped_ambient_trace scope(&t);
    EXPECT_EQ(ambient_trace(), &t);
    network net{graph::paper_fig1a()};  // constructed inside the scope
    net.charge(0, 1, 8);
    net.end_step();
    EXPECT_EQ(t.events(), (std::vector<trace_event>{{0, 0, 1, 8}}));
    // Scopes nest and restore.
    trace inner;
    {
      scoped_ambient_trace nested(&inner);
      EXPECT_EQ(ambient_trace(), &inner);
    }
    EXPECT_EQ(ambient_trace(), &t);
  }
  EXPECT_EQ(ambient_trace(), nullptr);
  // Networks constructed outside any scope stay untraced.
  network quiet{graph::paper_fig1a()};
  quiet.charge(0, 1, 8);
  quiet.end_step();
  EXPECT_EQ(t.total_bits(), 8u);
}

TEST(Trace, AmbientTraceIsThreadLocal) {
  trace mine;
  scoped_ambient_trace scope(&mine);
  trace* seen_on_other_thread = &mine;
  std::thread other([&] { seen_on_other_thread = ambient_trace(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(ambient_trace(), &mine);
}

TEST(Trace, Phase1UsesOnlyTreeEdges) {
  // Protocol-level assertion enabled by tracing: the unreliable broadcast
  // touches exactly the packed tree edges.
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  network net(g);
  trace t;
  net.attach_trace(&t);
  // Mimic Phase 1's charging pattern directly.
  for (const auto& tree : trees)
    for (const auto& e : tree.edges) net.charge(e.from, e.to, 64);
  net.end_step();
  for (const auto& e : g.edges()) {
    bool in_some_tree = false;
    for (const auto& tree : trees)
      for (const auto& te : tree.edges)
        if (te.from == e.from && te.to == e.to) in_some_tree = true;
    EXPECT_EQ(t.link_total(e.from, e.to) > 0, in_some_tree)
        << e.from << "->" << e.to;
  }
}

}  // namespace
}  // namespace nab::sim
