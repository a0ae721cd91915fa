// When a dispute phase refreshes G_k, the session keeps its certified
// coding unless rho_k changed, and a barren phase (no new dispute, no
// conviction) refreshes nothing at all. Both rules show in a run record's
// deterministic counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "runtime/runtime.hpp"

namespace nab::runtime {
namespace {

int count_spans(const run_record& rec, const std::string& name) {
  return static_cast<int>(std::count_if(
      rec.timing.spans.begin(), rec.timing.spans.end(),
      [&](const obs::span_record& sp) { return sp.name == name; }));
}

TEST(Session, RhoGrowthRegeneratesAndRecertifies) {
  // The sweep's random_regular-n8 garbler is convicted in the first
  // instance, and rho_k grows from 2 to 3 on the G_k that remains: the
  // refresh must generate and certify a new coding, on top of set-up.
  const std::vector<scenario> sweep = select_scenarios("all");
  const auto it = std::find_if(sweep.begin(), sweep.end(), [](const scenario& s) {
    return s.name == "random-regular/random_regular-n8/p1_garble";
  });
  ASSERT_NE(it, sweep.end());
  const int index = static_cast<int>(it - sweep.begin());
  const run_record full = execute_scenario(*it, index, 1, false, true);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.convictions, 0);

  scenario first = *it;  // set-up certification, then the convicting instance
  first.instances = 1;
  const run_record setup = execute_scenario(first, index, 1);
  ASSERT_TRUE(setup.ok());
  EXPECT_GT(full.counters[obs::counter::cert_subgraphs],
            setup.counters[obs::counter::cert_subgraphs]);
  EXPECT_EQ(count_spans(full, "coding_generate"), 2);
  EXPECT_EQ(count_spans(full, "certify"), 2);
}

TEST(Session, BarrenPhaseLeavesGraphStateUntouched) {
  // An honest K_7 session over heavy loss: at run 58 erasures trip the
  // mismatch flag once, and the dispute phase that follows finds nothing.
  // G_k is unchanged, so the run must certify and look up exactly what the
  // loss-free run of the same scenario does.
  scenario s;
  s.name = "coding-reuse/k7";
  s.family = "coding-reuse";
  s.topology = {.kind = topology_kind::complete, .n = 7, .cap_lo = 1, .cap_hi = 1};
  s.f = 2;
  s.claim_backend = bb::claim_backend::collapsed;
  s.adversary = adversary_kind::honest;
  s.instances = 8;
  s.words = 64;
  s.loss = "heavy";
  const run_record lossy = execute_scenario(s, 58, 1);
  ASSERT_TRUE(lossy.ok());
  ASSERT_GT(lossy.dispute_phases, 0);
  ASSERT_EQ(lossy.disputes, 0);
  ASSERT_EQ(lossy.convictions, 0);

  s.loss = "none";
  const run_record clean = execute_scenario(s, 58, 1);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.dispute_phases, 0);
  for (const obs::counter c : {obs::counter::cert_subgraphs, obs::counter::cache_lookups})
    EXPECT_EQ(lossy.counters[c], clean.counters[c]) << obs::counter_name(c);
}

}  // namespace
}  // namespace nab::runtime
