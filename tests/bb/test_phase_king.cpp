#include "bb/phase_king.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sim/link_faults.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

struct harness {
  explicit harness(int n, std::vector<graph::node_id> corrupt = {}, int f = 1)
      : g(graph::complete(n)), net(g), faults(n, corrupt), plan(g, f) {}
  graph::digraph g;
  sim::network net;
  sim::fault_set faults;
  channel_plan plan;
};

void expect_consensus(const harness& h, const pk_result& r,
                      std::optional<std::uint64_t> expected) {
  std::optional<std::uint64_t> agreed;
  for (graph::node_id v : h.g.active_nodes()) {
    if (h.faults.is_corrupt(v)) continue;
    if (!agreed) {
      agreed = r.decided[static_cast<std::size_t>(v)];
    } else {
      EXPECT_EQ(r.decided[static_cast<std::size_t>(v)], *agreed) << "node " << v;
    }
  }
  if (expected) {
    EXPECT_EQ(*agreed, *expected);
  }
}

TEST(PhaseKing, AdmissibilityPredicate) {
  EXPECT_TRUE(phase_king_admissible(9, 2));
  EXPECT_FALSE(phase_king_admissible(8, 2));
  EXPECT_TRUE(phase_king_admissible(5, 1));
  EXPECT_FALSE(phase_king_admissible(4, 1));
}

TEST(PhaseKing, ValidityAllAgreeInitially) {
  harness h(5);
  std::vector<std::uint64_t> init(5, 77);
  const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 1, 64);
  expect_consensus(h, r, 77);
}

/// Corrupt nodes report value keyed by the receiver, trying to split honest
/// opinion; as king they equivocate too.
class splitter : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t) override {
    return receiver % 2;
  }
};

TEST(PhaseKing, AgreementWithSplitInputsAndOneFault) {
  harness h(5, {4});
  splitter adv;
  std::vector<std::uint64_t> init{0, 0, 1, 1, 9};
  const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 1, 64, &adv);
  expect_consensus(h, r, std::nullopt);
}

TEST(PhaseKing, ValidityDespiteSplitterFault) {
  harness h(5, {2});
  splitter adv;
  std::vector<std::uint64_t> init(5, 5);
  init[2] = 1234;  // corrupt node's own input is irrelevant
  const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 1, 64, &adv);
  expect_consensus(h, r, 5);
}

TEST(PhaseKing, TwoFaultsNeedNine) {
  harness h(9, {3, 7}, 2);
  splitter adv;
  std::vector<std::uint64_t> init{4, 4, 4, 0, 4, 4, 4, 0, 4};
  const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 2, 64, &adv);
  expect_consensus(h, r, 4);
}

TEST(PhaseKing, BroadcastValidity) {
  harness h(5);
  const auto r = phase_king_broadcast(h.plan, h.net, h.faults, 2, 31337, 1, 64);
  expect_consensus(h, r, 31337);
}

TEST(PhaseKing, BroadcastAgreementWithEquivocatingSource) {
  harness h(5, {0});
  splitter adv;
  const auto r = phase_king_broadcast(h.plan, h.net, h.faults, 0, 1, 1, 64, &adv);
  expect_consensus(h, r, std::nullopt);
}

TEST(PhaseKing, AdversarialKingCannotBreakConfidentMajority) {
  // All honest nodes share an input; the corrupt node is king in phase 0
  // (node 0) — they must stay on the common value.
  harness h(5, {0});
  splitter adv;
  std::vector<std::uint64_t> init(5, 88);
  init[0] = 3;
  const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 1, 64, &adv);
  expect_consensus(h, r, 88);
}

TEST(PhaseKing, ErasedMessagesFallBackToDefault) {
  // Every transmission erased and no retries: nobody hears anything. Each
  // node's majority is its own value with multiplicity 1 (never confident),
  // so the king keeps its own value and every other node takes the missing
  // king message's default, 0.
  sim::link_fault_params erase_all;
  erase_all.p_loss_good = 1.0;
  erase_all.p_loss_bad = 1.0;
  erase_all.retry_budget = 0;
  sim::link_fault_model model(erase_all, 1);
  sim::scoped_link_faults lossy(&model);

  // f = 0: one phase, king 0.
  {
    harness h(3, {}, 0);
    const auto r = phase_king_consensus(h.plan, h.net, h.faults, {7, 8, 9}, 0, 64);
    EXPECT_EQ(r.decided, (std::vector<std::uint64_t>{7, 0, 0}));
  }
  // f = 1: king 0 keeps 5 in phase 0 while the rest fall to 0; king 1 then
  // holds 0, and everyone ends on the default.
  {
    harness h(5, {}, 1);
    const auto r = phase_king_consensus(h.plan, h.net, h.faults, {5, 6, 7, 8, 9}, 1, 64);
    EXPECT_EQ(r.decided, (std::vector<std::uint64_t>(5, 0)));
    EXPECT_GT(h.net.total_bits(), 0u);  // the copies were sent, then erased
  }
}

TEST(PhaseKing, RandomizedAdversarySweep) {
  class random_adv : public pk_adversary {
   public:
    explicit random_adv(std::uint64_t seed) : rand_(seed) {}
    std::uint64_t exchange_value(graph::node_id, graph::node_id, int, bool,
                                 std::uint64_t) override {
      return rand_.below(4);
    }

   private:
    nab::rng rand_;
  };
  nab::rng seeds(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const auto corrupt = static_cast<graph::node_id>(seeds.below(5));
    harness h(5, {corrupt});
    random_adv adv(seeds.next_u64());
    std::vector<std::uint64_t> init;
    for (int v = 0; v < 5; ++v) init.push_back(seeds.below(3));
    const auto r = phase_king_consensus(h.plan, h.net, h.faults, init, 1, 64, &adv);
    expect_consensus(h, r, std::nullopt);
  }
}

}  // namespace
}  // namespace nab::bb
