// The runtime's headline contract: a sweep is a pure function of
// (scenario list, sweep seed) — the jobs count, scheduling order, and
// machine load must not leak into any record. Checked by running the same
// sweep at several thread counts and comparing both the typed records and
// the serialized JSON byte for byte.

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"

namespace nab::runtime {
namespace {

// Families chosen to cover random topologies, dispute control, both flag
// protocols, and both claim backends while staying fast enough for CI.
constexpr const char* kSweep =
    "fig1,capacity-skew,ablation-flags,ablation-claims,random-regular";

TEST(Determinism, RecordsAreIdenticalAcrossJobCounts) {
  const std::vector<scenario> sweep = select_scenarios(kSweep);
  ASSERT_GE(sweep.size(), 8u);
  const auto one = run_sweep(sweep, 42, 1);
  const auto four = run_sweep(sweep, 42, 4);
  const auto eight = run_sweep(sweep, 42, 8);
  ASSERT_EQ(one.size(), sweep.size());
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(Determinism, JsonDocumentsAreByteIdenticalModuloWallClock) {
  constexpr const char* kJsonSweep = "fig1,ablation-length";
  const std::vector<scenario> sweep = select_scenarios(kJsonSweep);
  const auto a = run_sweep(sweep, 7, 1);
  const auto b = run_sweep(sweep, 7, 5);
  // wall_seconds < 0 omits the machine-dependent fields — what remains must
  // serialize identically, byte for byte.
  EXPECT_EQ(sweep_document(kJsonSweep, 7, 1, a, -1.0).dump(),
            sweep_document(kJsonSweep, 7, 5, b, -1.0).dump());
}

TEST(Determinism, TracedAndUntracedSweepsAgree) {
  // A trace reads the per-link loads network::end_step sums and changes no
  // charge path: clean phase-king rounds charge whole fan-outs from the
  // route table's load templates either way. Capturing one must move no
  // record. wan_5cluster runs phase-king over emulated multi-hop routes, and
  // ablation-flags has phase-king runs on direct links. At jobs > 1 the
  // shards share one route table, so its templates are read concurrently.
  const std::vector<scenario> sweep = select_scenarios("wan_5cluster,ablation-flags");
  std::vector<run_record> traced =
      run_sweep(sweep, 5, 2, {}, nullptr, /*capture_traces=*/true);
  const std::vector<run_record> untraced = run_sweep(sweep, 5, 3);
  ASSERT_EQ(traced.size(), sweep.size());
  int phase_king_runs = 0;
  for (run_record& r : traced) {
    EXPECT_FALSE(r.traffic.empty()) << r.scenario;
    r.traffic.clear();
    if (r.flag_protocol != "eig") ++phase_king_runs;
  }
  EXPECT_GE(phase_king_runs, 5);
  EXPECT_EQ(traced, untraced);
}

TEST(Determinism, DifferentSeedsProduceDifferentRandomness) {
  const std::vector<scenario> sweep = select_scenarios("random-regular");
  const auto a = run_sweep(sweep, 1, 2);
  const auto c = run_sweep(sweep, 2, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_difference = any_difference || !(a[i] == c[i]);
  EXPECT_TRUE(any_difference);
}

TEST(Determinism, SeedDerivationIsPinned) {
  // Golden values: if these move, every recorded BENCH_runtime.json becomes
  // incomparable with new runs. Bump only with a conscious format break.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(1, 1));
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(2, 0));
  EXPECT_EQ(derive_run_seed(1, 0), derive_run_seed(1, 0));
}

TEST(Determinism, ScenarioSeedsNeverDependOnRunnerState) {
  // Executing one scenario twice (same index, same sweep seed) must agree
  // exactly — including through the random-topology reseed loop.
  const std::vector<scenario> sweep = select_scenarios("random-regular");
  const run_record r1 = execute_scenario(sweep.front(), 3, 99);
  const run_record r2 = execute_scenario(sweep.front(), 3, 99);
  EXPECT_EQ(r1, r2);
}

}  // namespace
}  // namespace nab::runtime
