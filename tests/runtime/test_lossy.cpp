// The lossy-link axis end to end at the runtime layer: the registry's loss
// presets and their naming, the fleet --loss override path, the zero-loss
// byte-identity guard (an attached-but-inert model may not move a single
// record), the K_7 bursty acceptance criteria (honest survives with zero
// disputes, a tamperer is still convicted), and the jobs-1-vs-N determinism
// contract extended over erasure chains and ARQ.

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "sim/link_faults.hpp"
#include "util/error.hpp"

namespace nab::runtime {
namespace {

TEST(LossyRegistry, LossyFamiliesExistAndCarryTheAxis) {
  for (const char* name : {"lossy_k7", "lossy_hypercube", "lossy_wan"})
    ASSERT_NE(find_family(name), nullptr) << name;
  // Single-value loss axes fold into the family name; multi-value axes
  // surface as a /loss-<spec> suffix (mirrors every other axis).
  bool saw_light = false, saw_heavy = false;
  for (const scenario& s : find_family("lossy_hypercube")->expand()) {
    saw_light = saw_light || s.name.find("/loss-light") != std::string::npos;
    saw_heavy = saw_heavy || s.name.find("/loss-heavy") != std::string::npos;
  }
  EXPECT_TRUE(saw_light);
  EXPECT_TRUE(saw_heavy);
  for (const scenario& s : find_family("lossy_k7")->expand()) {
    EXPECT_EQ(s.loss, "bursty") << s.name;
    EXPECT_EQ(s.name.find("/loss-"), std::string::npos) << s.name;
  }
  // Every non-lossy family keeps the default.
  for (const scenario& s : select_scenarios("fig1,complete"))
    EXPECT_EQ(s.loss, "none") << s.name;
}

TEST(LossyFleetCli, LossFlagParsesAndRejectsByName) {
  EXPECT_EQ(parse_fleet_args({"--loss", "bursty"}).loss, "bursty");
  EXPECT_EQ(parse_fleet_args({"--loss", "none"}).loss, "none");
  EXPECT_EQ(parse_fleet_args({"--loss", "0.1,0.5,0.05,0.25"}).loss,
            "0.1,0.5,0.05,0.25");
  EXPECT_TRUE(parse_fleet_args({}).loss.empty());  // empty = no override
  EXPECT_THROW(parse_fleet_args({"--loss", "medium"}), nab::error);
  EXPECT_THROW(parse_fleet_args({"--loss", "0.1,0.2"}), nab::error);
  EXPECT_THROW(parse_fleet_args({"--loss"}), nab::error);
}

TEST(LossyGuard, ZeroLossSweepIsByteIdenticalToClean) {
  // The tentpole's safety net: attaching the inert "zero" model (what
  // `fleet --loss zero` does) must reproduce the clean sweep record for
  // record — same transcripts, same wire bits, same margins, same
  // simulated times. Only the loss echo field itself may differ.
  constexpr const char* kSweep = "fig1,ablation-claims";
  const std::vector<scenario> clean = select_scenarios(kSweep);
  std::vector<scenario> zeroed = clean;
  for (scenario& s : zeroed) s.loss = "zero";
  const auto a = run_sweep(clean, 42, 2);
  auto b = run_sweep(zeroed, 42, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].loss, "zero");
    b[i].loss = a[i].loss;
    EXPECT_EQ(a[i], b[i]) << clean[i].name;
  }
}

TEST(LossyAcceptance, K7BurstyHonestSurvivesWithZeroDisputes) {
  // The PR's headline criterion: under the bursty Gilbert-Elliott preset on
  // K_7, honest runs ride the ARQ to full agreement and the erasure
  // classifier keeps dispute control silent — drops happened, retransmits
  // paid for them, nobody got blamed.
  const std::vector<scenario> sweep = select_scenarios("lossy_k7");
  const auto records = run_sweep(sweep, 1, 4);
  bool saw_honest = false, saw_garbler = false;
  for (const run_record& r : records) {
    EXPECT_TRUE(r.ok()) << r.scenario;
    EXPECT_TRUE(r.agreement) << r.scenario;
    EXPECT_EQ(r.loss, "bursty") << r.scenario;
    EXPECT_GT(r.counters[obs::counter::link_drops], 0u) << r.scenario;
    EXPECT_GT(r.counters[obs::counter::link_retransmits], 0u) << r.scenario;
    if (r.adversary == "honest") {
      saw_honest = true;
      EXPECT_EQ(r.disputes, 0) << r.scenario;
      EXPECT_EQ(r.convictions, 0) << r.scenario;
    } else if (r.adversary == "p1_garble") {
      // Erasure discrimination must not shelter actual tampering.
      saw_garbler = true;
      EXPECT_GE(r.convictions, 1) << r.scenario;
      EXPECT_TRUE(r.conviction_sound) << r.scenario;
    }
  }
  EXPECT_TRUE(saw_honest);
  EXPECT_TRUE(saw_garbler);
}

TEST(LossyAcceptance, HonestLossyFamiliesHoldAllInvariants) {
  const std::vector<scenario> sweep =
      select_scenarios("lossy_hypercube,lossy_wan");
  const auto records = run_sweep(sweep, 1, 4);
  std::uint64_t total_drops = 0;
  for (const run_record& r : records) {
    EXPECT_TRUE(r.ok()) << r.scenario;
    total_drops += r.counters[obs::counter::link_drops];
    if (r.adversary == "honest") {
      EXPECT_EQ(r.disputes, 0) << r.scenario;
      EXPECT_EQ(r.convictions, 0) << r.scenario;
    }
  }
  EXPECT_GT(total_drops, 0u);
}

TEST(LossyDeterminism, RecordsAreIdenticalAcrossJobCounts) {
  // Erasure chains are per-link streams keyed by (run seed, link index), so
  // the lossy families obey the same jobs-1-vs-N contract as everything
  // else — drop sequences, retransmit counts, and margins included.
  const std::vector<scenario> sweep =
      select_scenarios("lossy_k7,lossy_hypercube,lossy_wan");
  const auto one = run_sweep(sweep, 42, 1);
  const auto four = run_sweep(sweep, 42, 4);
  EXPECT_EQ(one, four);
  EXPECT_EQ(sweep_document("lossy", 42, 1, one, -1.0).dump(),
            sweep_document("lossy", 42, 4, four, -1.0).dump());
}

TEST(LossyRunner, RetryHeadroomGaugeIsRecordedOnlyUnderLoss) {
  const run_record lossy =
      execute_scenario(find_family("lossy_k7")->expand().front(), 0, 1);
  EXPECT_GE(lossy.gauges[obs::gauge::retry_headroom], 0);
  EXPECT_LE(lossy.gauges[obs::gauge::retry_headroom], 12);  // the default retry budget
  const run_record clean = execute_scenario(select_scenarios("fig1").front(), 0, 1);
  EXPECT_EQ(clean.gauges[obs::gauge::retry_headroom], -1);
  EXPECT_EQ(clean.counters[obs::counter::link_drops], 0u);
  EXPECT_EQ(clean.counters[obs::counter::link_retransmits], 0u);
}

TEST(LossyRunner, PipelinedPropagationRejectsRealLossAllowsInert) {
  const auto sweep = select_scenarios("ablation-propagation");
  const scenario* pipelined = nullptr;
  for (const scenario& s : sweep)
    if (s.propagation == core::propagation_mode::pipelined) pipelined = &s;
  ASSERT_NE(pipelined, nullptr);
  scenario lossy = *pipelined;
  lossy.loss = "bursty";  // Appendix-D schedules have no ARQ slack
  EXPECT_THROW(execute_scenario(lossy, 0, 11), nab::error);
  scenario inert = *pipelined;
  inert.loss = "zero";
  const run_record rec = execute_scenario(inert, 2, 11);
  EXPECT_TRUE(rec.ok()) << rec.scenario;
  run_record reference = execute_scenario(*pipelined, 2, 11);
  reference.loss = "zero";  // only the echo field may differ
  EXPECT_EQ(rec, reference);
}

}  // namespace
}  // namespace nab::runtime
