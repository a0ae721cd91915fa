// Thread-sanitizer-targeted smoke sweep: runs a representative slice of the
// registry at high parallelism and asserts every paper invariant per run.
// Build with -DNAB_SANITIZE=thread to get the data-race check the runtime's
// "embarrassingly parallel" claim rests on; without instrumentation it still
// exercises the scheduler's shared index counter and the invariant
// evaluation.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "runtime/runtime.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace nab::runtime {
namespace {

TEST(SmokeSweep, RepresentativeSliceHoldsAllInvariantsUnderParallelism) {
  const std::vector<scenario> sweep =
      select_scenarios("complete,hypercube,clustered-wan,rotating-sources");
  ASSERT_GE(sweep.size(), 20u);
  const auto records = run_sweep(sweep, 5, 8);
  ASSERT_EQ(records.size(), sweep.size());
  for (const run_record& r : records) {
    EXPECT_TRUE(r.agreement) << r.scenario;
    EXPECT_TRUE(r.validity) << r.scenario;
    EXPECT_TRUE(r.dispute_sound) << r.scenario;
    EXPECT_TRUE(r.conviction_sound) << r.scenario;
    EXPECT_TRUE(r.dispute_bound) << r.scenario;
    EXPECT_GT(r.throughput, 0.0) << r.scenario;
    EXPECT_EQ(r.run_index, static_cast<int>(&r - records.data()));
  }
  const sweep_summary s = summarize(records);
  EXPECT_EQ(s.failed_runs, 0);
  EXPECT_EQ(s.runs, static_cast<int>(sweep.size()));
}

TEST(SmokeSweep, StealthAdversaryRealizesDisputesWithoutBreakingSoundness) {
  const std::vector<scenario> sweep = select_scenarios("complete-f2");
  const auto records = run_sweep(sweep, 3, 4);
  int total_disputes = 0;
  for (const run_record& r : records) {
    EXPECT_TRUE(r.ok()) << r.scenario;
    total_disputes += r.disputes;
  }
  // The f=2 coalition families include stealth/dispute-farm strategies whose
  // entire purpose is manufacturing dispute evidence.
  EXPECT_GT(total_disputes, 0);
}

TEST(Executor, EveryIndexRunsExactlyOnce) {
  for (int jobs : {1, 2, 7, 64}) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h = 0;
    parallel_for_each_index(jobs, hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

TEST(Executor, EmptyAndSingletonCountsAreHandled) {
  parallel_for_each_index(4, 0, [](std::size_t) { FAIL(); });
  int calls = 0;
  parallel_for_each_index(4, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Executor, FirstFailingIndexWinsExceptionPropagation) {
  try {
    parallel_for_each_index(4, 50, [&](std::size_t i) {
      if (i == 13 || i == 31) throw error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const error& e) {
    EXPECT_STREQ(e.what(), "boom at 13");
  }
}

TEST(Executor, WorkStealingDrainsImbalancedLoads) {
  // One pathological heavy index; while one worker spins on it, the others
  // must keep claiming the remaining 63 from the shared counter — observable
  // here as plain completion (no deadlock, all indices run).
  std::atomic<int> done{0};
  parallel_for_each_index(4, 64, [&](std::size_t i) {
    if (i == 0) {
      volatile int spin = 0;
      while (spin < 2'000'000) spin = spin + 1;
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace nab::runtime
