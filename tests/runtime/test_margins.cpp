// Invariant-margin gauges (run_record::gauges): honest runs must keep the
// -1 "never exercised" sentinel, every disputed run must record real
// headroom, a hand-computed quorum slack on a small disputed K_7 run must
// match what the collapsed backend records, and the promoted hunted_*
// presets must keep beating every hand-written strategy — bit-identically,
// forever. These gauges are the hunt's fitness function (runtime/hunt.hpp),
// so their semantics are load-bearing twice over.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/runtime.hpp"

namespace nab::runtime {
namespace {

using obs::gauge;

scenario k7_base() {
  scenario s;
  s.name = "margins/k7";
  s.family = "margins";
  s.topology = {.kind = topology_kind::complete, .n = 7, .cap_lo = 1, .cap_hi = 1};
  s.f = 2;
  s.claim_backend = bb::claim_backend::collapsed;
  s.instances = 4;
  s.words = 16;
  return s;
}

TEST(Margins, HonestRunsCarrySentinels) {
  scenario s = k7_base();
  s.adversary = adversary_kind::honest;
  const run_record rec = execute_scenario(s, 0, 1);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.dispute_phases, 0);
  // No dispute phase ran, so no gauge was ever exercised: all three must
  // keep the -1 sentinel, not a stale or zero value.
  EXPECT_EQ(rec.gauges[gauge::quorum_slack], -1);
  EXPECT_EQ(rec.gauges[gauge::hold_surplus], -1);
  EXPECT_EQ(rec.gauges[gauge::dispute_headroom], -1);
}

TEST(Margins, HandComputedSlackOnDisputedK7) {
  // K_7, f = 2, collapsed claim backend, a phase-1 garbler to force the
  // dispute path. The corrupt nodes implement no claim-layer hooks, so the
  // claim broadcast itself runs with honest behavior everywhere:
  //   quorum_slack  = senders - (2f+1)   = 7 - 5 = 2  (all 7 send READY in
  //                                                    the same round)
  //   hold_surplus  = honest holders - (f+1) = (7-2) - 3 = 2
  scenario s = k7_base();
  s.adversary = adversary_kind::p1_garble;
  const run_record rec = execute_scenario(s, 0, 1);
  ASSERT_TRUE(rec.ok());
  ASSERT_GT(rec.dispute_phases, 0);
  EXPECT_EQ(rec.gauges[gauge::quorum_slack], 2);
  EXPECT_EQ(rec.gauges[gauge::hold_surplus], 2);
  // f(f+1) = 6 is the paper's dispute-phase bound; at least one phase ran.
  EXPECT_GE(rec.gauges[gauge::dispute_headroom], 0);
  EXPECT_LT(rec.gauges[gauge::dispute_headroom], 6);
}

TEST(Margins, DisputedRunsAlwaysRecordGauges) {
  // Every disputed preset x adversary combination must record real margins:
  // dispute_headroom whenever a dispute phase ran, and the two quorum
  // gauges whenever the collapsed backend carried the claims. The -1
  // sentinel escaping into a disputed run would silently blind the hunt.
  const std::vector<scenario> sweep = select_scenarios(
      "complete-f2,ablation-claims,hunted_k7_quorum,hunted_k7_hold,"
      "hunted_k9_quorum,hunted_k9_hold");
  const auto records = run_sweep(sweep, 1, 2);
  int disputed = 0;
  int collapsed_disputed = 0;
  for (const run_record& rec : records) {
    ASSERT_TRUE(rec.ok()) << rec.scenario;
    if (rec.dispute_phases == 0) continue;
    ++disputed;
    EXPECT_GE(rec.gauges[gauge::dispute_headroom], 0) << rec.scenario;
    if (rec.claim_backend == "collapsed") {
      ++collapsed_disputed;
      EXPECT_GE(rec.gauges[gauge::quorum_slack], 0) << rec.scenario;
      EXPECT_GE(rec.gauges[gauge::hold_surplus], 0) << rec.scenario;
    }
  }
  // The selection must actually exercise both properties.
  EXPECT_GE(disputed, 10);
  EXPECT_GE(collapsed_disputed, 6);
}

TEST(Margins, BarrenLossyPhaseStillRecordsHeadroom) {
  // An honest K_7 session over heavy loss: at run 58 erasures trip the
  // mismatch flag once, and the dispute phase that follows is barren — no
  // new dispute, no conviction. The bound does not count barren phases on
  // lossy runs, so the headroom is the full f(f+1) = 6, but a phase did run
  // and the gauge must say so rather than keep the -1 sentinel.
  scenario s = k7_base();
  s.adversary = adversary_kind::honest;
  s.loss = "heavy";
  s.instances = 8;
  s.words = 64;
  const run_record rec = execute_scenario(s, 58, 1);
  ASSERT_TRUE(rec.ok());
  ASSERT_GT(rec.dispute_phases, 0);
  ASSERT_EQ(rec.disputes, 0);
  ASSERT_EQ(rec.convictions, 0);
  EXPECT_EQ(rec.gauges[gauge::dispute_headroom], 6);
}

TEST(Margins, HuntedPresetsBeatEveryHandWrittenStrategy) {
  // The promotion contract (docs/HUNT.md): each hunted_* preset drives its
  // target gauge strictly below the minimum any hand-written adversary
  // records on the same topology. The margins are exact — a hunted
  // genome's corrupt set and claim-layer strike pattern are pure functions
  // of the genome, so these values reproduce at every sweep seed.
  const auto hunted = run_sweep(
      select_scenarios(
          "hunted_k7_quorum,hunted_k7_hold,hunted_k9_quorum,hunted_k9_hold"),
      1, 1);
  ASSERT_EQ(hunted.size(), 4u);
  for (const run_record& rec : hunted) ASSERT_TRUE(rec.ok()) << rec.scenario;

  EXPECT_EQ(hunted[0].gauges[gauge::quorum_slack], 0);  // hunted_k7_quorum
  EXPECT_EQ(hunted[1].gauges[gauge::hold_surplus], 0);  // hunted_k7_hold
  EXPECT_EQ(hunted[2].gauges[gauge::quorum_slack], 2);  // hunted_k9_quorum
  EXPECT_EQ(hunted[3].gauges[gauge::hold_surplus], 1);  // hunted_k9_hold
  EXPECT_EQ(hunted[3].gauges[gauge::quorum_slack], 2);

  // Hand-written baselines on the same topologies. On K_7 the hand-written
  // presets never even reach the collapsed backend's quorum gauges; the
  // honest-behavior values (HandComputedSlackOnDisputedK7) are 2 and 2.
  // On K_9, take the true minimum across the ablation-claims grid.
  std::int64_t k9_slack = 1'000'000;
  std::int64_t k9_hold = 1'000'000;
  for (const run_record& rec : run_sweep(select_scenarios("ablation-claims"), 1, 2)) {
    if (rec.gauges[gauge::quorum_slack] >= 0)
      k9_slack = std::min(k9_slack, rec.gauges[gauge::quorum_slack]);
    if (rec.gauges[gauge::hold_surplus] >= 0)
      k9_hold = std::min(k9_hold, rec.gauges[gauge::hold_surplus]);
  }
  EXPECT_LT(hunted[0].gauges[gauge::quorum_slack], 2);
  EXPECT_LT(hunted[1].gauges[gauge::hold_surplus], 2);
  EXPECT_LT(hunted[2].gauges[gauge::quorum_slack], k9_slack);
  EXPECT_LT(hunted[3].gauges[gauge::hold_surplus], k9_hold);
}

TEST(Margins, HuntedPresetsReplayBitIdentically) {
  // A promoted genome is a regression test, so its replay must be exact:
  // same records from repeated executions and across jobs counts.
  const std::vector<scenario> sweep = select_scenarios(
      "hunted_k7_quorum,hunted_k7_hold,hunted_k9_quorum,hunted_k9_hold");
  const auto once = run_sweep(sweep, 1, 1);
  const auto again = run_sweep(sweep, 1, 1);
  const auto parallel = run_sweep(sweep, 1, 4);
  EXPECT_EQ(once, again);
  EXPECT_EQ(once, parallel);
}

}  // namespace
}  // namespace nab::runtime
