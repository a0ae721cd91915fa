// Direct dispute-control scenarios: build Phase-1/2 transcripts with
// controlled corruption and run Phase 3 in isolation, checking exactly what
// evidence each misbehavior yields (the DC2/DC3/DC4 case analysis of
// Appendix B).

#include <gtest/gtest.h>

#include "bb/channels.hpp"
#include "core/dispute.hpp"
#include "core/equality_check.hpp"
#include "core/phase1.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

/// Runs Phases 1-2 with the given adversary and then Phase 3, returning the
/// outcome. K5(cap 2), f=1, source 0.
struct scenario_result {
  dispute_outcome outcome;
  dispute_record record;
  std::vector<word> input;
};

scenario_result run_scenario(const std::vector<graph::node_id>& corrupt,
                             nab_adversary* adv,
                             bb::claim_backend backend = bb::claim_backend::eig) {
  const graph::digraph g = graph::complete(5, 2);
  sim::network net(g);
  sim::fault_set faults(5, corrupt);
  rng rand(17);

  scenario_result res;
  res.input.resize(8);
  for (auto& w : res.input) w = static_cast<word>(rand.below(65536));

  const auto gamma = graph::broadcast_mincut(g, 0);
  const auto trees = graph::pack_arborescences(g, 0, static_cast<int>(gamma));
  const auto uk = compute_uk(g, 1, res.record);
  const auto rho = compute_rho(uk);
  const auto coding = coding_scheme::generate(g, static_cast<int>(rho), 23);

  const auto p1 = run_phase1(net, g, faults, 0, res.input, trees, adv);
  std::vector<value_vector> values(5);
  for (graph::node_id v : g.active_nodes())
    values[static_cast<std::size_t>(v)] = value_vector::reshape(
        p1.received[static_cast<std::size_t>(v)], static_cast<int>(rho));
  const auto ec = run_equality_check(net, g, faults, coding, values, adv);

  instance_context ctx;
  ctx.source = 0;
  ctx.input = res.input;
  ctx.rho = static_cast<int>(rho);
  ctx.trees = trees;
  ctx.coding = &coding;
  ctx.truth.assign(5, node_claims{});
  ctx.agreed_flags.assign(5, false);
  for (graph::node_id v : g.active_nodes()) {
    node_claims merged = p1.truth[static_cast<std::size_t>(v)];
    merged.p2_sent = ec.truth[static_cast<std::size_t>(v)].p2_sent;
    merged.p2_received = ec.truth[static_cast<std::size_t>(v)].p2_received;
    ctx.truth[static_cast<std::size_t>(v)] = std::move(merged);
    bool flag = ec.flags[static_cast<std::size_t>(v)];
    if (faults.is_corrupt(v) && adv != nullptr) flag = adv->phase2_flag(v, flag);
    ctx.agreed_flags[static_cast<std::size_t>(v)] = flag;
  }

  bb::channel_plan channels(g, 1);
  res.outcome = run_dispute_control(net, channels, g, faults, 1, 1, ctx,
                                    res.record, adv, backend);
  return res;
}

TEST(DisputeScenario, SpuriousTriggerLeavesHonestNodesUntouched) {
  // The only misbehavior is node 3 crying MISMATCH: dispute control runs,
  // convicts exactly the false-flagger, finds no honest-honest disputes,
  // and agrees on the true input.
  false_flagger adv;
  const auto res = run_scenario({3}, &adv);
  EXPECT_EQ(res.outcome.newly_convicted, (std::vector<graph::node_id>{3}));
  for (const auto& [a, b] : res.outcome.new_disputes)
    EXPECT_TRUE(a == 3 || b == 3) << "honest pair {" << a << "," << b << "}";
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

TEST(DisputeScenario, TruthfulGarblerIsConvictedByReplay) {
  // Node 2 garbles Phase-1 forwards and then truthfully claims what it sent:
  // DC3 convicts it directly (sent != prescribed).
  phase1_corruptor adv;
  const auto res = run_scenario({2}, &adv);
  EXPECT_EQ(res.outcome.newly_convicted, (std::vector<graph::node_id>{2}));
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

TEST(DisputeScenario, LyingAboutSendsCreatesDisputeWithReceiver) {
  // Node 2 garbles but CLAIMS it forwarded correctly: now its claims are
  // self-consistent, and the mismatch surfaces as DC2 disputes with honest
  // receivers instead.
  class cover_up : public nab_adversary {
   public:
    chunk phase1_forward_chunk(int, graph::node_id, graph::node_id,
                               const chunk& honest) override {
      chunk out = honest;
      for (word& w : out) w = static_cast<word>(~w);
      return out;
    }
    node_claims phase3_claims(graph::node_id, const node_claims& honest) override {
      node_claims out = honest;
      // Claim the prescribed forward: replace each sent chunk with the chunk
      // received from the parent on the same tree.
      for (auto& [key, c] : out.p1_sent) {
        for (const auto& [rkey, rc] : out.p1_received)
          if (std::get<0>(rkey) == std::get<0>(key)) c = rc;
      }
      return out;
    }
  };
  cover_up adv;
  const auto res = run_scenario({2}, &adv);
  // Not convicted by replay this time — but every lied-to receiver disputes.
  bool disputed_with_honest = false;
  for (const auto& [a, b] : res.outcome.new_disputes)
    if (a == 2 || b == 2) disputed_with_honest = true;
  EXPECT_TRUE(disputed_with_honest);
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

TEST(DisputeScenario, FalseFlagAloneConvicts) {
  false_flagger adv;
  const auto res = run_scenario({3}, &adv);
  EXPECT_EQ(res.outcome.newly_convicted, (std::vector<graph::node_id>{3}));
}

TEST(DisputeScenario, MalformedClaimsConvict) {
  class garbage_claims : public nab_adversary {
   public:
    bool phase2_flag(graph::node_id, bool) override { return true; }
    node_claims phase3_claims(graph::node_id, const node_claims&) override {
      // Unparseable blob: violates the prescribed claim format.
      node_claims out;
      out.p1_sent[{0, 0, 1}] = chunk(1u << 21, 0);  // absurd chunk length
      return out;
    }
  };
  garbage_claims adv;
  const auto res = run_scenario({1}, &adv);
  EXPECT_EQ(res.outcome.newly_convicted, (std::vector<graph::node_id>{1}));
}

TEST(DisputeScenario, VerdictsAreBackendObliviousAndOnlyWireCostMoves) {
  // The same Phase-1/2 misbehavior must yield byte-identical Phase-3
  // evidence under every claim backend; the DC1 wire accounting is exactly
  // what is allowed to differ (the collapsed backend transfers each
  // transcript once per pair, the oracle once per EIG label relay).
  for (auto* adversary_case : {"garbler", "flagger"}) {
    const bool garbler = std::string(adversary_case) == "garbler";
    phase1_corruptor garble;
    false_flagger flag;
    nab_adversary* adv = garbler ? static_cast<nab_adversary*>(&garble)
                                 : static_cast<nab_adversary*>(&flag);
    const graph::node_id corrupt = garbler ? 2 : 3;

    const auto eig = run_scenario({corrupt}, adv, bb::claim_backend::eig);
    obs::collector counters;
    obs::scoped_collector on(&counters);
    const auto col = run_scenario({corrupt}, adv, bb::claim_backend::collapsed);
    EXPECT_EQ(eig.outcome.new_disputes, col.outcome.new_disputes) << adversary_case;
    EXPECT_EQ(eig.outcome.newly_convicted, col.outcome.newly_convicted)
        << adversary_case;
    EXPECT_EQ(eig.outcome.agreed_value, col.outcome.agreed_value) << adversary_case;
    EXPECT_EQ(eig.record.pairs(), col.record.pairs()) << adversary_case;
    EXPECT_GT(eig.outcome.claim_bits, 0u) << adversary_case;
    EXPECT_GT(col.outcome.claim_bits, 0u) << adversary_case;
    EXPECT_EQ(counters.value(obs::counter::claim_fallbacks), 0u) << adversary_case;
    // K_5 sits below the asymptotic crossover, but the oracle must already
    // pay more than the collapsed path here.
    EXPECT_GT(eig.outcome.claim_bits, col.outcome.claim_bits) << adversary_case;
  }
}

TEST(DisputeScenario, EvidenceAccumulatesAcrossRuns) {
  // DC4 works on the cumulative record: a pre-existing dispute {1,2} plus a
  // new dispute {2,3} forces node 2 (star center) into every 1-cover.
  dispute_record record;
  record.add_dispute(1, 2);
  record.add_dispute(2, 3);
  const auto forced = explaining_intersection(record.pairs(), 1);
  EXPECT_EQ(forced, (std::vector<graph::node_id>{2}));
}

}  // namespace
}  // namespace nab::core
