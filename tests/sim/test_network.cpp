#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/generators.hpp"
#include "sim/link_faults.hpp"
#include "util/error.hpp"

namespace nab::sim {
namespace {

network make_line() {
  graph::digraph g(3);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 2);
  return network(std::move(g));
}

TEST(Network, StepDurationIsMaxLoadOverCapacity) {
  network net = make_line();
  net.charge(0, 1, 8);   // 8 bits on cap-4 link -> 2 time units
  net.charge(1, 2, 2);   // 2 bits on cap-2 link -> 1 time unit
  EXPECT_DOUBLE_EQ(net.end_step(), 2.0);
  EXPECT_DOUBLE_EQ(net.elapsed(), 2.0);
}

TEST(Network, LoadsAccumulateWithinStep) {
  network net = make_line();
  net.charge(0, 1, 4);
  net.charge(0, 1, 4);
  EXPECT_DOUBLE_EQ(net.end_step(), 2.0);  // 8 bits total on cap 4
}

TEST(Network, ChargeOnMissingLinkThrows) {
  // The paper's model has no channel where the topology has no link: every
  // per-call charging path rejects it, with or without a fault model.
  network net = make_line();
  EXPECT_THROW(net.charge(2, 0, 1), nab::error);
  EXPECT_THROW(net.charge(0, 2, 1), nab::error);
  EXPECT_THROW(net.lossy_transmit(2, 0, 1), nab::error);
  EXPECT_THROW(net.lossy_transmit(0, 2, 1), nab::error);
  link_fault_model m(parse_loss_spec("bursty"), 1);
  scoped_link_faults scope(&m);
  network lossy = make_line();
  ASSERT_EQ(lossy.link_faults(), &m);
  EXPECT_THROW(lossy.lossy_transmit(2, 0, 1), nab::error);
  EXPECT_THROW(lossy.lossy_transmit(0, 2, 1), nab::error);
  // Nothing was charged by the rejected calls.
  EXPECT_DOUBLE_EQ(net.end_step(), 0.0);
  EXPECT_DOUBLE_EQ(lossy.end_step(), 0.0);
}

TEST(Network, AttachedTraceLedgersEveryCharge) {
  // The per-link ledger is the attached trace's: its link totals and total
  // equal what charge, charge_links and lossy_transmit put on each link, and
  // its total equals the network's own count over completed steps.
  network net = make_line();
  trace t;
  net.attach_trace(&t);
  net.charge(0, 1, 4);
  net.end_step();
  const std::uint32_t links[] = {network::link_index(3, 0, 1),
                                 network::link_index(3, 1, 2)};
  net.require_links(3, links);
  net.charge_links(links, 3);
  EXPECT_TRUE(net.lossy_transmit(1, 2, 2));
  net.end_step();
  EXPECT_EQ(t.link_total(0, 1), 4u + 3u);
  EXPECT_EQ(t.link_total(1, 2), 3u + 2u);
  EXPECT_EQ(t.link_total(1, 0), 0u);
  EXPECT_EQ(t.total_bits(), 12u);
  EXPECT_EQ(net.total_bits(), 12u);
  EXPECT_EQ(net.steps(), 2);
  // Step 1: 7 bits on cap 4 vs 5 bits on cap 2.
  EXPECT_DOUBLE_EQ(net.elapsed(), 1.0 + 2.5);
}

TEST(Network, EmptyStepTakesNoTime) {
  network net = make_line();
  EXPECT_DOUBLE_EQ(net.end_step(), 0.0);
  EXPECT_EQ(net.steps(), 1);
  net.charge(0, 1, 0);  // a zero-bit charge is free
  EXPECT_DOUBLE_EQ(net.end_step(), 0.0);
  EXPECT_EQ(net.total_bits(), 0u);
}

TEST(Network, StepDurationStaysFiniteUnderLoad) {
  network net = make_line();
  net.charge(0, 1, ~std::uint64_t{0} >> 12);
  const double tau = net.end_step();
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_GT(tau, 0.0);
}

TEST(Network, TopologyRespectsGraphGenerators) {
  network net{graph::paper_fig2()};
  net.charge(0, 1, 128);
  net.charge(1, 3, 64);
  // (0,1) has capacity 2 -> 64 units; (1,3) has capacity 1 -> 64 units.
  EXPECT_DOUBLE_EQ(net.end_step(), 64.0);
}

}  // namespace
}  // namespace nab::sim
