#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "sim/network.hpp"

namespace nab::sim {
namespace {

TEST(Trace, RecordsTaggedAndBareCharges) {
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  net.charge(0, 1, 32, /*tag=*/7);
  net.charge(1, 2, 8);
  net.end_step();
  net.charge(2, 0, 4, /*tag=*/9);
  net.end_step();

  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].step, 0);
  EXPECT_EQ(t.events()[0].tag, 7u);
  EXPECT_EQ(t.events()[1].tag, 0u);  // bare charge
  EXPECT_EQ(t.events()[2].step, 1);
  EXPECT_EQ(t.link_total(0, 1), 32u);
  EXPECT_EQ(t.link_total(1, 2), 8u);
  EXPECT_TRUE(t.used(2, 0));
  EXPECT_FALSE(t.used(0, 2));
  EXPECT_EQ(t.step_events(0).size(), 2u);
}

TEST(Trace, TagTotalsAccountPerProtocol) {
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  net.charge(0, 1, 32, /*tag=*/7);
  net.charge(1, 2, 8, /*tag=*/7);
  net.charge(2, 0, 16);             // untagged charge
  net.end_step();
  net.charge(1, 0, 4, /*tag=*/7);
  net.end_step();
  EXPECT_EQ(t.tag_total(7), 32u + 8u + 4u);
  EXPECT_EQ(t.tag_total(0), 16u);
  EXPECT_EQ(t.tag_total(99), 0u);
  EXPECT_EQ(t.total_bits(), 60u);
  EXPECT_EQ(t.total_bits(), net.total_bits());
}

TEST(Trace, DetachAndClear) {
  network net{graph::complete(3)};
  trace t;
  net.attach_trace(&t);
  net.charge(0, 1, 1);
  net.attach_trace(nullptr);
  net.charge(0, 2, 1);
  net.end_step();
  EXPECT_EQ(t.events().size(), 1u);
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
    EXPECT_EQ(t.events().size(), 1u);
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
  EXPECT_EQ(t.events().size(), 1u);
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
    EXPECT_EQ(t.used(e.from, e.to), in_some_tree)
        << e.from << "->" << e.to;
  }
}

}  // namespace
}  // namespace nab::sim
