#include "core/equality_check.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/omega.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "sim/link_faults.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

std::vector<value_vector> equal_values(const graph::digraph& g, const value_vector& x) {
  std::vector<value_vector> out(static_cast<std::size_t>(g.universe()));
  for (graph::node_id v : g.active_nodes()) out[static_cast<std::size_t>(v)] = x;
  return out;
}

/// Flags and GF words presented by one equality check.
struct check_outcome {
  std::vector<bool> flags;
  std::uint64_t gf_axpy_words = 0;
};

/// The check as Algorithm 1 states it, for the receipts `r` recorded: every
/// edge encoded by its sender, then every receiver re-encodes each receipt
/// with coding.check, up to its first mismatch.
check_outcome per_edge_checks(const graph::digraph& g, const coding_scheme& cs,
                              const std::vector<value_vector>& values,
                              const equality_check_result& r) {
  check_outcome out;
  out.flags.assign(static_cast<std::size_t>(g.universe()), false);
  obs::collector col;
  {
    obs::scoped_collector counting(&col);
    for (const graph::edge& e : g.edges())
      (void)cs.encode(values[static_cast<std::size_t>(e.from)], e.from, e.to);
    for (graph::node_id v : g.active_nodes())
      for (const auto& [key, received] : r.truth[static_cast<std::size_t>(v)].p2_received)
        if (!cs.check(values[static_cast<std::size_t>(v)], key.first, key.second, received)) {
          out.flags[static_cast<std::size_t>(v)] = true;
          break;
        }
  }
  out.gf_axpy_words = col.value(obs::counter::gf_axpy_words);
  return out;
}

TEST(EqualityCheck, SharedEncodingsMatchPerEdgeChecks) {
  // A receiver whose value equals its sender's compares the receipt with
  // the sender's own encoding instead of re-encoding; flags and the words
  // charged must still be exactly the per-edge checks'.
  const graph::digraph g = graph::complete(6, 2);
  const int rho = 3, slices = 21;
  const coding_scheme cs = coding_scheme::generate(g, rho, 31);
  rng rand(11);
  const value_vector x = value_vector::random(rho, slices, rand);
  const value_vector y = value_vector::random(rho, slices, rand);
  const auto values_where = [&](const std::vector<graph::node_id>& holding_y) {
    auto values = equal_values(g, x);
    for (graph::node_id v : holding_y) values[static_cast<std::size_t>(v)] = y;
    return values;
  };
  struct case_spec {
    const char* name;
    std::vector<value_vector> values;
    std::vector<graph::node_id> corrupt;
    bool liar = false;
    bool lossy = false;
    bool flagged = true;  ///< some node raises MISMATCH
  };
  const std::vector<case_spec> cases = {
      {"all_equal", values_where({}), {}, false, false, false},
      {"phase2_liar", values_where({}), {1}, true},
      {"one_deviant", values_where({2}), {}},
      {"two_classes", values_where({3, 4, 5}), {}},
      {"erased_receipts", values_where({4}), {}, false, true},
  };
  for (const case_spec& c : cases) {
    std::optional<sim::link_fault_model> model;
    std::optional<sim::scoped_link_faults> model_scope;
    if (c.lossy) {
      model.emplace(sim::link_fault_params{.p_loss_good = 0.5, .retry_budget = 0}, 5);
      model_scope.emplace(&*model);
    }
    sim::network net(g);
    sim::fault_set faults(6, c.corrupt);
    phase2_liar liar;
    obs::collector col;
    equality_check_result r;
    {
      obs::scoped_collector counting(&col);
      r = run_equality_check(net, g, faults, cs, c.values, c.liar ? &liar : nullptr);
    }
    const check_outcome expect = per_edge_checks(g, cs, c.values, r);
    EXPECT_EQ(r.flags, expect.flags) << c.name;
    EXPECT_EQ(col.value(obs::counter::gf_axpy_words), expect.gf_axpy_words) << c.name;

    std::size_t receipts = 0;
    bool any_flag = false;
    for (graph::node_id v : g.active_nodes()) {
      receipts += r.truth[static_cast<std::size_t>(v)].p2_received.size();
      any_flag = any_flag || r.flags[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(any_flag, c.flagged) << c.name;
    EXPECT_EQ(receipts < g.edges().size(), c.lossy) << c.name;
  }
}

TEST(EqualityCheck, AllEqualValuesRaiseNoFlag) {
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 3);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(1);
  const auto r = run_equality_check(net, g, faults, cs,
                                    equal_values(g, value_vector::random(1, 4, rand)));
  for (graph::node_id v = 0; v < 4; ++v) EXPECT_FALSE(r.flags[static_cast<std::size_t>(v)]);
}

TEST(EqualityCheck, OneDeviantValueIsDetectedByANeighbor) {
  // Requirement (EC): if two fault-free nodes hold different values, some
  // fault-free node must flag. With all nodes fault-free and one deviant,
  // detection must occur at the deviant or a neighbor.
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 9);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(2);
  auto values = equal_values(g, value_vector::random(1, 4, rand));
  values[2] = value_vector::random(1, 4, rand);  // node 2 got a different value
  const auto r = run_equality_check(net, g, faults, cs, values);
  bool any = false;
  for (graph::node_id v = 0; v < 4; ++v) any = any || r.flags[static_cast<std::size_t>(v)];
  EXPECT_TRUE(any);
}

TEST(EqualityCheck, DetectionSweepOverAllSingleDeviants) {
  const graph::digraph g = graph::complete(5, 2);
  const graph::capacity_t uk = compute_uk(g, 1, dispute_record{});
  const coding_scheme cs =
      coding_scheme::generate(g, static_cast<int>(compute_rho(uk)), 17);
  rng rand(3);
  for (graph::node_id deviant = 0; deviant < 5; ++deviant) {
    sim::network net(g);
    sim::fault_set faults(5);
    auto values = equal_values(
        g, value_vector::random(static_cast<int>(compute_rho(uk)), 2, rand));
    values[static_cast<std::size_t>(deviant)] =
        value_vector::random(static_cast<int>(compute_rho(uk)), 2, rand);
    const auto r = run_equality_check(net, g, faults, cs, values);
    bool any = false;
    for (graph::node_id v = 0; v < 5; ++v) any = any || r.flags[static_cast<std::size_t>(v)];
    EXPECT_TRUE(any) << "deviant " << deviant;
  }
}

TEST(EqualityCheck, TimeIsLOverRho) {
  // L = rho * slices * 16; each link of capacity z carries z*(L/rho) bits,
  // so the step lasts exactly L/rho regardless of topology.
  const graph::digraph g = graph::paper_fig2();
  const int rho = 2, slices = 8;  // L = 256, L/rho = 128
  const coding_scheme cs = coding_scheme::generate(g, rho, 5);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(4);
  const auto r =
      run_equality_check(net, g, faults, cs, equal_values(g, value_vector::random(rho, slices, rand)));
  EXPECT_DOUBLE_EQ(r.time, 128.0);
}

TEST(EqualityCheck, LyingSenderIsFlaggedByReceiver) {
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 6);
  sim::network net(g);
  sim::fault_set faults(4, {1});
  phase2_liar adv;
  rng rand(5);
  const auto r = run_equality_check(net, g, faults, cs,
                                    equal_values(g, value_vector::random(1, 4, rand)), &adv);
  // Node 1's neighbors (0 and 2) receive garbage and must flag.
  EXPECT_TRUE(r.flags[0] || r.flags[2]);
}

TEST(EqualityCheck, NoForwardingMeansHonestPairsUnaffected) {
  // The salient feature: a faulty node cannot tamper traffic between
  // fault-free nodes. With equal values everywhere and a liar at node 1,
  // checks on edges among {0,2,3} still pass.
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 8);
  sim::network net(g);
  sim::fault_set faults(4, {1});
  phase2_liar adv;
  rng rand(6);
  const auto values = equal_values(g, value_vector::random(1, 4, rand));
  const auto r = run_equality_check(net, g, faults, cs, values, &adv);
  // Node 3 has no link to node 1 in Fig 1(a): it must not flag.
  EXPECT_FALSE(r.flags[3]);
}

TEST(EqualityCheck, TranscriptsRecordWhatWasSent) {
  const graph::digraph g = graph::paper_fig2();
  const coding_scheme cs = coding_scheme::generate(g, 1, 10);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(7);
  const auto values = equal_values(g, value_vector::random(1, 2, rand));
  const auto r = run_equality_check(net, g, faults, cs, values);
  for (const graph::edge& e : g.edges()) {
    const auto& sent = r.truth[static_cast<std::size_t>(e.from)].p2_sent;
    ASSERT_TRUE(sent.count({e.from, e.to}));
    EXPECT_EQ(sent.at({e.from, e.to}),
              cs.encode(values[static_cast<std::size_t>(e.from)], e.from, e.to));
  }
}

}  // namespace
}  // namespace nab::core
