// Unit tests for the pluggable claim-broadcast layer (bb/claim_bcast.hpp):
// digest algebra and the batch digester's charge, the collapsed Bracha-style
// backend's agreement/validity under digest equivocation, echo/ready
// suppression and forged retrievals, its per-copy digest charge, and the
// auto_select resolution rule.

#include "bb/claim_bcast.hpp"

#include <gtest/gtest.h>

#include "core/omega_cache.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"

namespace nab::bb {
namespace {

// --- harness ---------------------------------------------------------------

struct harness {
  graph::digraph g;
  sim::network net;
  channel_plan plan;
  sim::fault_set faults;

  harness(graph::digraph graph, int f, std::vector<graph::node_id> corrupt = {})
      : g(graph),
        net(g),
        plan(g, f, core::omega_cache::instance().channel_routes_for(g, f)),
        faults(g.universe(), corrupt) {}
};

/// Distinct multi-word claims, one per active node.
std::vector<claim_instance> distinct_claims(const graph::digraph& g) {
  std::vector<claim_instance> out;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    inst.input = {static_cast<std::uint64_t>(v) * 0x1111 + 7,
                  static_cast<std::uint64_t>(v), 0xabcdef};
    inst.value_bits = 64 * 3;
    out.push_back(std::move(inst));
  }
  return out;
}

void expect_all_decide_inputs(const claim_outcome& out,
                              const std::vector<claim_instance>& instances,
                              const harness& h, const char* ctx) {
  ASSERT_EQ(out.agreed.size(), instances.size()) << ctx;
  for (std::size_t q = 0; q < instances.size(); ++q)
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)], instances[q].input)
          << ctx << " instance " << q << " node " << v;
    }
}

void expect_honest_agree(const claim_outcome& out, const harness& h,
                         const char* ctx) {
  for (std::size_t q = 0; q < out.agreed.size(); ++q) {
    const value* first = nullptr;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      const value& mine = out.agreed[q][static_cast<std::size_t>(v)];
      if (first == nullptr) {
        first = &mine;
      } else {
        EXPECT_EQ(mine, *first) << ctx << " instance " << q << " node " << v;
      }
    }
  }
}

// --- digest ----------------------------------------------------------------

TEST(ClaimDigest, DeterministicAndContentSensitive) {
  const value a = {1, 2, 3};
  EXPECT_EQ(claim_digest_of(a), claim_digest_of(a));
  EXPECT_NE(claim_digest_of(a), claim_digest_of(value{1, 2, 4}));
  EXPECT_NE(claim_digest_of(a), claim_digest_of(value{1, 2}));
  // Length is absorbed, so zero-padding changes the digest.
  EXPECT_NE(claim_digest_of(value{}), claim_digest_of(value{0}));
  EXPECT_NE(claim_digest_of(value{0}), claim_digest_of(value{0, 0}));
}

TEST(ClaimDigest, SeedMovesTheEvaluationPoints) {
  // The points are per-run protocol state (sessions feed their coding
  // seed): a fixed public point set would make collisions closed-form
  // linear algebra instead of a seeded-randomness bet.
  const value a = {0xfeed, 42, 7};
  EXPECT_EQ(claim_digest_of(a, 99), claim_digest_of(a, 99));
  EXPECT_NE(claim_digest_of(a, 99), claim_digest_of(a, 100));
  EXPECT_NE(claim_digest_of(a, 0), claim_digest_of(a, 0x5eed));
}

TEST(ClaimDigest, PackedRoundTrips) {
  const claim_digest d = claim_digest_of({0xdeadbeef, 42});
  EXPECT_EQ(claim_digest::from_packed(d.packed()), d);
  EXPECT_EQ(claim_digest::from_packed(0), claim_digest{});
}

TEST(ClaimDigest, BatchMatchesScalarAndChargesPerPayload) {
  // Two empty payloads and three of length 3 (one a duplicate) form
  // same-length groups; lengths 1 and 5 are lone.
  const std::vector<value> payloads = {
      {}, {1, 2, 3}, {7}, {}, {1, 2, 4}, {9, 9, 9, 9, 9}, {1, 2, 3}};
  std::vector<const value*> views;
  for (const value& p : payloads) views.push_back(&p);
  obs::collector col;
  std::vector<claim_digest> digests;
  {
    obs::scoped_collector on(&col);
    digests = claim_digests_of(views, 0x5eed);
  }
  ASSERT_EQ(digests.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(digests[i], claim_digest_of(payloads[i], 0x5eed)) << "payload " << i;
  // 16·(len+1) per payload: lone lengths walk the scalar tables, groups run
  // gf2_16::scale row passes.
  EXPECT_EQ(col.value(obs::counter::gf_mul_ops), 16u * (1 + 1) + 16u * (5 + 1));
  EXPECT_EQ(col.value(obs::counter::gf_scale_words),
            16u * (0 + 1) * 2 + 16u * (3 + 1) * 3);

  obs::collector empty_col;
  {
    obs::scoped_collector on(&empty_col);
    EXPECT_TRUE(claim_digests_of({}, 0x5eed).empty());
  }
  EXPECT_EQ(empty_col.value(obs::counter::gf_mul_ops), 0u);
  EXPECT_EQ(empty_col.value(obs::counter::gf_scale_words), 0u);
}

// --- auto_select boundary --------------------------------------------------

TEST(ClaimBackendResolve, ExplicitChoicesPassThrough) {
  for (claim_backend b : {claim_backend::eig, claim_backend::collapsed})
    EXPECT_EQ(resolve_claim_backend(b, 64, 2), b);
}

TEST(ClaimBackendResolve, AutoKeepsSmallPresetsOnTheOracle) {
  // K_7 f=2, K_9 f=2, K_16 f=1: the EIG label tree is still cheap.
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 7, 2),
            claim_backend::eig);
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 9, 2),
            claim_backend::eig);
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 16, 1),
            claim_backend::eig);
}

TEST(ClaimBackendResolve, AutoCollapsesWhereTheLabelTreeDominates) {
  // n=32 f=2 (the hypercube_d5 bottleneck) and any n=64 configuration.
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 32, 2),
            claim_backend::collapsed);
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 64, 1),
            claim_backend::collapsed);
  EXPECT_EQ(resolve_claim_backend(claim_backend::auto_select, 16, 2),
            claim_backend::collapsed);
}

// --- honest paths across both backends ------------------------------------

TEST(ClaimBroadcast, AllBackendsDecideSubmittedInputsOnK9F2) {
  const auto instances_of = [](const harness& h) { return distinct_claims(h.g); };
  for (claim_backend b : {claim_backend::eig, claim_backend::collapsed}) {
    harness h(graph::complete(9), 2, {2, 5});  // corrupt but in-BB honest
    const auto instances = instances_of(h);
    obs::collector col;
    obs::scoped_collector on(&col);
    const claim_outcome out =
        broadcast_claims(b, h.plan, h.net, h.faults, instances, 2);
    expect_all_decide_inputs(out, instances, h,
                             b == claim_backend::eig ? "eig" : "collapsed");
    EXPECT_EQ(col.value(obs::counter::claim_fallbacks), 0u);
    EXPECT_GT(h.net.total_bits(), 0u);
  }
}

TEST(ClaimBroadcast, CollapsedAgreesUnderAnyDigestSeed) {
  for (std::uint64_t seed : {0ull, 0x5eedull, ~0ull}) {
    harness h(graph::complete(7), 2, {1, 6});
    const auto instances = distinct_claims(h.g);
    obs::collector col;
    obs::scoped_collector on(&col);
    const claim_outcome out = broadcast_claims_collapsed(
        h.plan, h.net, h.faults, instances, 2, nullptr, nullptr, seed);
    expect_all_decide_inputs(out, instances, h, "seeded");
    EXPECT_EQ(col.value(obs::counter::claim_fallbacks), 0u);
  }
}

TEST(ClaimBroadcast, CollapsedRunsOnEmulatedSparseChannels) {
  // Remove a link so some logical channels route over 2f+1 disjoint paths.
  graph::digraph g = graph::complete(6, 2);
  g.remove_edge_pair(0, 3);
  harness h(g, 1, {4});
  const auto instances = distinct_claims(h.g);
  obs::collector col;
  obs::scoped_collector on(&col);
  const claim_outcome out = broadcast_claims_collapsed(h.plan, h.net, h.faults,
                                                       instances, 1);
  expect_all_decide_inputs(out, instances, h, "sparse-collapsed");
  EXPECT_EQ(col.value(obs::counter::claim_fallbacks), 0u);
}

TEST(ClaimBroadcast, CollapsedChargesPolynomiallyFewerClaimBitsThanEig) {
  // Same instances, same topology: the collapsed backend must transfer each
  // transcript once per pair instead of once per EIG label relay.
  const graph::digraph g = graph::complete(10);
  std::vector<claim_instance> instances;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    inst.input.assign(64, static_cast<std::uint64_t>(v) + 1);  // 4 KiB claims
    inst.value_bits = 64 * 64;
    instances.push_back(std::move(inst));
  }
  harness eig_h(g, 2, {1, 2});
  const claim_outcome eig_out =
      broadcast_claims_eig(eig_h.plan, eig_h.net, eig_h.faults, instances, 2);
  harness col_h(g, 2, {1, 2});
  const claim_outcome col_out = broadcast_claims_collapsed(
      col_h.plan, col_h.net, col_h.faults, instances, 2);
  EXPECT_EQ(eig_out.agreed, col_out.agreed);
  EXPECT_GT(eig_h.net.total_bits(), 10 * col_h.net.total_bits())
      << "eig=" << eig_h.net.total_bits() << " collapsed=" << col_h.net.total_bits();
}

// --- collapsed backend under its adversary hooks ---------------------------

/// Claimant equivocation: even receivers get the honest payload, odd ones a
/// substituted payload (with a matching digest — a "clean" equivocation).
class equivocating_claimant : public claim_adversary {
 public:
  value propose_payload(graph::node_id, graph::node_id receiver,
                        const value& honest) override {
    return receiver % 2 == 0 ? honest : value{0xbad, 0xbad};
  }
};

TEST(ClaimBroadcast, CollapsedEquivocatingClaimantCannotSplitHonestNodes) {
  harness h(graph::complete(7), 2, {0, 3});
  const auto instances = distinct_claims(h.g);
  equivocating_claimant adv;
  const claim_outcome out = broadcast_claims_collapsed(h.plan, h.net, h.faults,
                                                       instances, 2, &adv);
  expect_honest_agree(out, h, "equivocate");
  // Honest claimants are untouched by the corrupt ones' equivocation.
  for (std::size_t q = 0; q < instances.size(); ++q) {
    if (h.faults.is_corrupt(instances[q].source)) continue;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)], instances[q].input);
    }
  }
}

TEST(ClaimBroadcast, CollapsedChargesOneDigestPerCopy) {
  // Every receiver digests its own copy in the protocol, so the GF counters
  // must charge 16·(len+1) per copy however few digests the simulation
  // computes: one per claimant input, one per proposal a corrupt claimant
  // digests to announce, one per received copy, and one per retrieval
  // response a receiver verifies (the first, honest, one per fallback).
  harness h(graph::complete(7), 2, {0, 3});
  const auto instances = distinct_claims(h.g);
  equivocating_claimant adv;
  obs::collector col;
  claim_outcome out;
  {
    obs::scoped_collector on(&col);
    out = broadcast_claims_collapsed(h.plan, h.net, h.faults, instances, 2, &adv);
  }
  const auto charge = [](const value& v) { return 16 * (v.size() + 1); };
  std::uint64_t expected = 0;
  for (const claim_instance& inst : instances) {
    expected += charge(inst.input);
    const bool corrupt = h.faults.is_corrupt(inst.source);
    for (graph::node_id r : h.g.active_nodes()) {
      if (r == inst.source) continue;
      const value copy =
          corrupt ? adv.propose_payload(inst.source, r, inst.input) : inst.input;
      expected += charge(copy) * (corrupt ? 2 : 1);
    }
  }
  const std::uint64_t fallbacks = col.value(obs::counter::claim_fallbacks);
  EXPECT_GT(fallbacks, 0u);
  expected += fallbacks * charge(instances.front().input);
  EXPECT_EQ(col.value(obs::counter::gf_mul_ops) +
                col.value(obs::counter::gf_scale_words),
            expected);
}

TEST(ClaimBroadcast, CollapsedDigestMismatchedPairsFallBackToRetrieval) {
  // A short forgery, and one of the honest length that differs only in its
  // last word: a receiver may share the claimant's digest only when its whole
  // copy equals the input, so both must retrieve.
  for (const value& forgery : {value{0xf0f0}, value{0x5555, 0x5554}}) {
    harness h(graph::complete(7), 2, {5});
    auto instances = distinct_claims(h.g);
    // Make the corrupt claimant's honest input recognizable.
    for (auto& inst : instances)
      if (inst.source == 5) inst.input = {0x5555, 0x5555};

    class mismatcher : public claim_adversary {
     public:
      explicit mismatcher(value forged) : forged_(std::move(forged)) {}
      value propose_payload(graph::node_id, graph::node_id receiver,
                            const value& honest) override {
        // Receivers 0..1 get the forgery (any more and the honest holders
        // would drop below the echo quorum of (n+f)/2 + 1 = 5, making the
        // claimant simply unaccepted); the announced digest stays the honest
        // one, so the forgery mismatches and exactly those pairs retrieve.
        return receiver <= 1 ? forged_ : honest;
      }
      claim_digest announce_digest(graph::node_id, graph::node_id,
                                   const claim_digest&) override {
        return claim_digest_of({0x5555, 0x5555});  // the honest input's digest
      }

     private:
      value forged_;
    } adv(forgery);

    obs::collector col;
    obs::scoped_collector on(&col);
    const claim_outcome out = broadcast_claims_collapsed(h.plan, h.net, h.faults,
                                                         instances, 2, &adv);
    expect_honest_agree(out, h, "digest-mismatch");
    EXPECT_EQ(col.value(obs::counter::claim_fallbacks), 2u)
        << "forgery of " << forgery.size() << " words";
    // Every honest node ends with the payload backing the accepted digest —
    // enough honest holders exist to serve the mismatched minority.
    for (std::size_t q = 0; q < instances.size(); ++q) {
      if (instances[q].source != 5) continue;
      for (graph::node_id v : h.g.active_nodes()) {
        if (h.faults.is_corrupt(v)) continue;
        EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)],
                  (value{0x5555, 0x5555}));
      }
    }
  }
}

/// Suppresses every echo and ready toward one victim and forges retrieval
/// responses: quorum arithmetic and the digest filter must keep all honest
/// nodes identical anyway.
class suppressor : public claim_adversary {
 public:
  std::optional<claim_digest> echo_digest(
      graph::node_id, graph::node_id receiver, std::size_t,
      const std::optional<claim_digest>& honest) override {
    return receiver == 1 ? std::nullopt : honest;
  }
  bool suppress_ready(graph::node_id, graph::node_id receiver,
                      std::size_t) override {
    return receiver == 1;
  }
  std::optional<value> serve_retrieval(graph::node_id, graph::node_id,
                                       std::size_t,
                                       const std::optional<value>&) override {
    return value{0xdead};  // forged; filtered by the requester's digest check
  }
};

TEST(ClaimBroadcast, CollapsedSurvivesSuppressionAndForgedRetrievals) {
  harness h(graph::complete(7), 2, {0, 6});
  const auto instances = distinct_claims(h.g);
  suppressor adv;
  const claim_outcome out = broadcast_claims_collapsed(h.plan, h.net, h.faults,
                                                       instances, 2, &adv);
  expect_all_decide_inputs(out, instances, h, "suppression");
}

}  // namespace
}  // namespace nab::bb
