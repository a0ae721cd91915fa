// Pins the "near-zero-cost when off" contract: with no ambient collector
// installed, every instrumentation form (count, gauge_min, scoped_span —
// including close()) performs ZERO heap allocations. The PR-3 allocation
// budgets assume instrumentation is free in the uncollected fleet path; this
// test catches anyone adding an eager std::string or vector to the off path.
//
// heap_alloc_counter.hpp defines the global replacement operator new — it may
// be included from exactly one TU of this binary, and this is it.

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "support/heap_alloc_counter.hpp"

namespace nab::obs {
namespace {

TEST(ZeroOverhead, UncollectedInstrumentationNeverAllocates) {
  ASSERT_EQ(ambient_collector(), nullptr);
  const std::uint64_t before = util::heap_allocs();
  for (int i = 0; i < 10'000; ++i) {
    count(counter::gf_axpy_words, 64);
    count(counter::claim_echoes);
    gauge_min(gauge::quorum_slack, i);
    {
      scoped_span outer("instance", 0.0);
      scoped_span inner("phase1", 0.0);
      inner.end_tau(1.0);
      outer.end_tau(1.0);
    }
    {
      scoped_span span("dc3_replay", 0.0);
      span.close(1.0);
    }
  }
  EXPECT_EQ(util::heap_allocs() - before, 0u);
}

TEST(ZeroOverhead, SuspendedCollectorIsAllocationFree) {
  // A nullptr scoped_collector (suspension) must be as free as no collector:
  // installing/restoring is two thread-local stores, nothing on the heap.
  collector col;
  scoped_collector outer(&col);
  const std::uint64_t before = util::heap_allocs();
  for (int i = 0; i < 10'000; ++i) {
    scoped_collector suspend(nullptr);
    count(counter::gf_mul_ops, 16);
    scoped_span span("certify");
  }
  EXPECT_EQ(util::heap_allocs() - before, 0u);
  EXPECT_EQ(col.value(counter::gf_mul_ops), 0u);
  EXPECT_TRUE(col.spans().empty());
}

TEST(ZeroOverhead, CountingOnAWarmCollectorIsAllocationFree) {
  // Counters and gauges write into fixed arrays — only spans may allocate.
  collector col;
  scoped_collector scope(&col);
  const std::uint64_t before = util::heap_allocs();
  for (int i = 0; i < 10'000; ++i) {
    count(counter::gf_axpy_words, 64);
    gauge_min(gauge::hold_surplus, i);
  }
  EXPECT_EQ(util::heap_allocs() - before, 0u);
  EXPECT_EQ(col.value(counter::gf_axpy_words), 640'000u);
}

}  // namespace
}  // namespace nab::obs
