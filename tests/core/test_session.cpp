#include "core/session.hpp"

#include <gtest/gtest.h>

#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

std::vector<word> random_words(std::size_t n, rng& rand) {
  std::vector<word> out(n);
  for (auto& w : out) w = static_cast<word>(rand.below(65536));
  return out;
}

/// Asserts the invariants that must hold after ANY legal run: per-instance
/// agreement & validity, dispute soundness (every pair touches a corrupt
/// node), conviction soundness (never convict honest), and the paper's
/// f(f+1) bound on dispute-control executions.
void check_session_invariants(const session& s, const sim::fault_set& faults, int f,
                              const std::vector<instance_report>& reports) {
  for (const auto& r : reports) {
    EXPECT_TRUE(r.agreement) << "instance " << r.index;
    EXPECT_TRUE(r.validity) << "instance " << r.index;
  }
  for (const auto& [a, b] : s.disputes().pairs())
    EXPECT_TRUE(faults.is_corrupt(a) || faults.is_corrupt(b))
        << "dispute between two honest nodes " << a << "," << b;
  for (graph::node_id v : s.disputes().convicted())
    EXPECT_TRUE(faults.is_corrupt(v)) << "honest node " << v << " convicted";
  EXPECT_LE(s.stats().dispute_phases, f * (f + 1));
}

TEST(Session, RejectsBadParameters) {
  sim::fault_set none(4);
  EXPECT_THROW(session({.g = graph::complete(3), .f = 1}, sim::fault_set(3)),
               nab::error);  // n < 3f+1
  EXPECT_THROW(session({.g = graph::ring(7), .f = 2}, sim::fault_set(7)),
               nab::error);  // connectivity 2 < 2f+1
}

TEST(Session, FaultFreeSingleInstance) {
  // Note: the paper's Fig 1(a) has connectivity 2 < 2f+1 and therefore
  // cannot support BB with f=1 at all (it only illustrates Omega/U_k);
  // session tests use K4, the smallest f=1-feasible network.
  session s({.g = graph::complete(4), .f = 1}, sim::fault_set(4));
  rng rand(1);
  const auto input = random_words(12, rand);
  const auto r = s.run_instance(input);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  EXPECT_FALSE(r.mismatch_announced);
  EXPECT_FALSE(r.dispute_phase_run);
  EXPECT_EQ(r.gamma, 3);  // K4 unit links: mincut 3
  EXPECT_EQ(r.uk, 4);     // triangles with weight-2 edges
  EXPECT_EQ(r.rho, 2);
  for (graph::node_id v = 0; v < 4; ++v)
    EXPECT_EQ(r.outputs[static_cast<std::size_t>(v)], input);
}

TEST(Session, FaultFreePhaseTimesMatchTheory) {
  // L = 12*16 = 192 bits; gamma=3 -> Phase 1 = 64; rho=2 -> EC = 96.
  session s({.g = graph::complete(4), .f = 1}, sim::fault_set(4));
  rng rand(2);
  const auto r = s.run_instance(random_words(12, rand));
  EXPECT_DOUBLE_EQ(r.time_phase1, 64.0);
  EXPECT_DOUBLE_EQ(r.time_equality_check, 96.0);
  EXPECT_GT(r.time_flags, 0.0);       // constant in L
  EXPECT_DOUBLE_EQ(r.time_phase3, 0.0);
}

TEST(Session, CorruptRelayIsCaughtAndNeutralized) {
  sim::fault_set faults(4, {1});
  phase1_corruptor adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(3);
  const auto reports = s.run_many(6, 8, rand);
  check_session_invariants(s, faults, 1, reports);
  EXPECT_TRUE(reports[0].dispute_phase_run);  // first attack must trigger Phase 3
  // The attacker either got convicted or lost the edges it lied on.
  const bool neutralized = s.disputes().is_convicted(1) ||
                           !s.current_graph().is_active(1) ||
                           !s.disputes().pairs().empty();
  EXPECT_TRUE(neutralized);
}

TEST(Session, DishonestRelayConvictedByReplay) {
  // A relay that forwards garbage and then truthfully claims what it did is
  // convicted by DC3 (claims inconsistent with prescribed behavior).
  sim::fault_set faults(4, {2});
  phase1_corruptor adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(4);
  const auto r1 = s.run_instance(random_words(8, rand));
  EXPECT_TRUE(r1.dispute_phase_run);
  EXPECT_TRUE(s.disputes().is_convicted(2));
  EXPECT_FALSE(s.current_graph().is_active(2));

  // With f=1 node excluded, the special case kicks in: Phase 1 only.
  const auto r2 = s.run_instance(random_words(8, rand));
  EXPECT_TRUE(r2.phase1_only);
  EXPECT_TRUE(r2.agreement);
  EXPECT_TRUE(r2.validity);
  check_session_invariants(s, faults, 1, {r1, r2});
}

TEST(Session, EquivocatingSourceStillReachesAgreement) {
  sim::fault_set faults(4, {0});
  equivocating_source adv({2, 3});
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(5);
  const auto reports = s.run_many(3, 8, rand);
  check_session_invariants(s, faults, 1, reports);
  EXPECT_TRUE(reports[0].mismatch_announced);
}

TEST(Session, ConvictedSourceLeadsToDefaultOutcomes) {
  sim::fault_set faults(4, {0});
  equivocating_source adv({1, 2, 3});  // lies to everyone differently enough
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(6);
  // Keep running until the source is convicted, then expect defaults.
  bool converged = false;
  for (int i = 0; i < 5 && !converged; ++i) {
    const auto r = s.run_instance(random_words(8, rand));
    EXPECT_TRUE(r.agreement);
    converged = r.default_outcome;
  }
  if (s.disputes().is_convicted(0)) {
    const auto r = s.run_instance(random_words(8, rand));
    EXPECT_TRUE(r.default_outcome);
    for (graph::node_id v = 1; v < 4; ++v)
      EXPECT_EQ(r.outputs[static_cast<std::size_t>(v)], std::vector<word>(8, 0));
  }
}

TEST(Session, Phase2LiarTriggersDisputes) {
  sim::fault_set faults(4, {3});
  phase2_liar adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(7);
  const auto reports = s.run_many(4, 8, rand);
  check_session_invariants(s, faults, 1, reports);
  EXPECT_TRUE(reports[0].mismatch_announced);
  EXPECT_TRUE(reports[0].dispute_phase_run);
}

TEST(Session, FalseFlaggerConvictsItself) {
  // Announcing MISMATCH when your own claims show none is a DC3 conviction.
  sim::fault_set faults(4, {2});
  false_flagger adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(8);
  const auto r = s.run_instance(random_words(8, rand));
  EXPECT_TRUE(r.mismatch_announced);
  EXPECT_TRUE(r.dispute_phase_run);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  EXPECT_TRUE(s.disputes().is_convicted(2));
}

TEST(Session, StealthDisputerRespectsFf1Bound) {
  sim::fault_set faults(4, {1});
  stealth_disputer adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(9);
  const auto reports = s.run_many(8, 8, rand);
  check_session_invariants(s, faults, 1, reports);
  // Eventually the attacker runs out of unburned edges; later instances are
  // clean.
  EXPECT_FALSE(reports.back().dispute_phase_run);
  EXPECT_LE(s.stats().dispute_phases, 1 * 2);
}

TEST(Session, TwoColludersNeedMoreEvidence) {
  sim::fault_set faults(7, {2, 5});
  stealth_disputer adv;
  session s({.g = graph::complete(7), .f = 2}, faults, &adv);
  rng rand(10);
  const auto reports = s.run_many(8, 8, rand);
  check_session_invariants(s, faults, 2, reports);
  EXPECT_LE(s.stats().dispute_phases, 2 * 3);
}

TEST(Session, GraphOnlyShrinks) {
  sim::fault_set faults(4, {1});
  phase1_corruptor adv;
  session s({.g = graph::complete(4), .f = 1}, faults, &adv);
  rng rand(11);
  auto edge_count = s.current_graph().edges().size();
  auto node_count = s.current_graph().active_count();
  for (int i = 0; i < 5; ++i) {
    s.run_instance(random_words(4, rand));
    EXPECT_LE(s.current_graph().edges().size(), edge_count);
    EXPECT_LE(s.current_graph().active_count(), node_count);
    edge_count = s.current_graph().edges().size();
    node_count = s.current_graph().active_count();
  }
}

TEST(Session, ThroughputApproachesCleanRate) {
  // With no faults, throughput = L / (L/gamma + L/rho + flags). As L grows
  // the flag term vanishes: throughput -> gamma*rho/(gamma+rho) = 6/5 on K4.
  session s({.g = graph::complete(4), .f = 1}, sim::fault_set(4));
  rng rand(12);
  s.run_many(4, 4096, rand);  // L = 65536 bits
  const double tput = s.stats().throughput();
  const double ideal = 3.0 * 2.0 / (3.0 + 2.0);
  EXPECT_GT(tput, 0.9 * ideal);
  EXPECT_LE(tput, ideal + 1e-9);
}

TEST(Session, ReportsExposeRates) {
  session s({.g = graph::paper_fig2(), .f = 0}, sim::fault_set(4));
  EXPECT_EQ(s.next_gamma(), 2);
  EXPECT_GE(s.next_rho(), 1);
}

TEST(Session, FZeroRunsWithoutBBMachinery) {
  session s({.g = graph::paper_fig2(), .f = 0}, sim::fault_set(4));
  rng rand(13);
  const auto r = s.run_instance(random_words(8, rand));
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
}

TEST(Session, PhaseKingFlagsEngineWorks) {
  // Same contract through the polynomial flag engine (K5 > 4f with f=1),
  // including under an attack that forces dispute control.
  sim::fault_set faults(5, {2});
  phase1_corruptor adv;
  session_config cfg{.g = graph::complete(5, 2), .f = 1};
  cfg.flag_protocol = bb::bb_protocol::phase_king;
  session s(cfg, faults, &adv);
  rng rand(21);
  const auto reports = s.run_many(4, 8, rand);
  check_session_invariants(s, faults, 1, reports);
  EXPECT_TRUE(reports[0].mismatch_announced);
}

TEST(Session, AutoFlagEngineSelectsByGroupSize) {
  // n=4 with f=1 is <= 4f: auto must pick EIG and still work.
  session_config cfg{.g = graph::complete(4), .f = 1};
  cfg.flag_protocol = bb::bb_protocol::auto_select;
  session s(cfg, sim::fault_set(4));
  rng rand(22);
  const auto r = s.run_instance(random_words(8, rand));
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);

  session_config cfg5{.g = graph::complete(5), .f = 1};
  cfg5.flag_protocol = bb::bb_protocol::auto_select;
  session s5(cfg5, sim::fault_set(5));
  const auto r5 = s5.run_instance(random_words(8, rand));
  EXPECT_TRUE(r5.agreement);
  EXPECT_TRUE(r5.validity);
}

TEST(Session, RotatingSourcesShareEvidence) {
  // Every replica broadcasts in turn; the Byzantine one attacks as a relay
  // AND as a source. Dispute evidence accumulates across all of them.
  sim::fault_set faults(5, {2});
  phase1_corruptor adv;
  session s({.g = graph::complete(5, 2), .f = 1}, faults, &adv);
  rng rand(31);
  const auto reports = s.run_many(10, 8, rand, /*rotate_sources=*/true);
  check_session_invariants(s, faults, 1, reports);
  // The rotation reached multiple distinct gammas is not guaranteed, but
  // every instance must have completed from *some* source, including the
  // corrupt one (default outcome after conviction).
  EXPECT_EQ(static_cast<int>(reports.size()), 10);
}

TEST(Session, RotatingSourceValidityPerBroadcaster) {
  // Fault-free rotation: every node's broadcast must be delivered verbatim.
  session s({.g = graph::complete(4), .f = 1}, sim::fault_set(4));
  rng rand(32);
  for (graph::node_id src = 0; src < 4; ++src) {
    const auto input = random_words(6, rand);
    const auto r = s.run_instance(input, src);
    EXPECT_TRUE(r.agreement) << "source " << src;
    EXPECT_TRUE(r.validity) << "source " << src;
    for (graph::node_id v = 0; v < 4; ++v)
      EXPECT_EQ(r.outputs[static_cast<std::size_t>(v)], input) << "source " << src;
  }
}

TEST(Session, ConvictedRotatingSourceGetsDefaultOutcome) {
  sim::fault_set faults(5, {2});
  false_flagger adv;  // gets node 2 convicted on its first flag
  session s({.g = graph::complete(5, 2), .f = 1}, faults, &adv);
  rng rand(33);
  s.run_instance(random_words(4, rand), 0);  // conviction happens here
  ASSERT_TRUE(s.disputes().is_convicted(2));
  const auto r = s.run_instance(random_words(4, rand), 2);  // convicted broadcasts
  EXPECT_TRUE(r.default_outcome);
  EXPECT_TRUE(r.agreement);
}

TEST(Session, NextGammaIsZeroOnceSourceConvicted) {
  // The configured source is convicted while another node broadcasts. Its
  // next instance takes the default outcome, so next_gamma() must report
  // that outcome's gamma = 0, not ask G_k for a min cut from a node it no
  // longer holds.
  sim::fault_set faults(5, {2});
  false_flagger adv;
  session s({.g = graph::complete(5, 2), .f = 1, .source = 2}, faults, &adv);
  rng rand(33);
  s.run_instance(random_words(4, rand), 0);  // conviction happens here
  ASSERT_TRUE(s.disputes().is_convicted(2));
  EXPECT_EQ(s.next_rho(), 6);
  EXPECT_EQ(s.next_gamma(), 0);
  const auto r = s.run_instance(random_words(4, rand));
  EXPECT_TRUE(r.default_outcome);
  EXPECT_EQ(r.gamma, s.next_gamma());
}

TEST(Session, KeepsCertifiedCodingWhileRhoHolds) {
  // Unit-capacity K_7 with f = 2: every H in Omega_k is a K_5 (U_k = 8), so
  // rho stays 4 whatever disputes are found. The coding certified at set-up
  // must serve every later G_k: dispute phases that find evidence refresh
  // Omega_k but generate and certify nothing.
  sim::fault_set faults(7, {2, 5});
  stealth_disputer adv;
  session_config cfg{.g = graph::complete(7), .f = 2};
  cfg.claim_backend = bb::claim_backend::collapsed;
  session s(cfg, faults, &adv);
  obs::collector col;
  obs::scoped_collector scope(&col);
  ASSERT_EQ(s.next_rho(), 4);  // set-up certification
  const std::uint64_t setup_subgraphs = col.value(obs::counter::cert_subgraphs);
  const std::size_t setup_spans = col.spans().size();
  ASSERT_GT(setup_subgraphs, 0u);

  rng rand(10);
  const auto reports = s.run_many(8, 8, rand);
  check_session_invariants(s, faults, 2, reports);
  ASSERT_FALSE(s.disputes().empty());
  for (const auto& r : reports) EXPECT_EQ(r.rho, 4) << "instance " << r.index;
  int refreshes = 0;
  for (std::size_t i = setup_spans; i < col.spans().size(); ++i) {
    const std::string& name = col.spans()[i].name;
    refreshes += name == "refresh_graph";
    EXPECT_NE(name, "coding_generate") << "span " << i;
    EXPECT_NE(name, "certify") << "span " << i;
  }
  EXPECT_GT(refreshes, 0);  // G_k did change after set-up
  EXPECT_EQ(col.value(obs::counter::cert_subgraphs), setup_subgraphs);
}

TEST(Session, FatLinkNetworkIsCertifiedAtSetUp) {
  // Fat capacities push rho into the hundreds (rho = 193 here, ~8.4e8 GF
  // words of rank checks), yet set-up still certifies every H in Omega_1:
  // no workload may run on a coding that Theorem 1 only probably admits.
  session s({.g = graph::complete_with_weak_link(5, 96), .f = 1}, sim::fault_set(5));
  obs::collector col;
  obs::scoped_collector scope(&col);
  ASSERT_EQ(s.next_rho(), 193);
  EXPECT_EQ(col.value(obs::counter::cert_subgraphs), 5u);
  EXPECT_EQ(col.value(obs::counter::cert_loo_downdates), 5u);
  rng rand(41);
  const auto r = s.run_instance(random_words(64, rand));
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
}

TEST(Session, HighCapacityThroughputScalesWithC) {
  // The intro claim's mechanism at unit-test scale (tests/paper runs the
  // weak-link network itself): throughput grows with the uniform
  // capacity c (gamma and rho scale linearly in c).
  double prev = 0;
  for (graph::capacity_t c : {1, 4, 16}) {
    session s({.g = graph::complete(5, c), .f = 1}, sim::fault_set(5));
    rng rand(43);
    s.run_many(2, 512, rand);
    EXPECT_GT(s.stats().throughput(), prev);
    prev = s.stats().throughput();
  }
}

TEST(Session, FlagEnginesAgreeOnOutcomes) {
  // Both engines must produce identical instance outcomes on the same
  // deterministic run (only timing differs).
  for (const auto engine : {bb::bb_protocol::eig, bb::bb_protocol::phase_king}) {
    sim::fault_set faults(5, {1});
    phase2_liar adv(5);
    session_config cfg{.g = graph::complete(5, 2), .f = 1};
    cfg.flag_protocol = engine;
    session s(cfg, faults, &adv);
    rng rand(23);
    const auto reports = s.run_many(3, 8, rand);
    for (const auto& r : reports) {
      EXPECT_TRUE(r.agreement);
      EXPECT_TRUE(r.validity);
    }
    EXPECT_TRUE(reports[0].mismatch_announced);
  }
}

}  // namespace
}  // namespace nab::core
