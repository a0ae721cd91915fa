#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace nab::obs {
namespace {

TEST(Collector, CountersStartZeroAndAccumulate) {
  collector col;
  for (int i = 0; i < counter_count; ++i)
    EXPECT_EQ(col.value(static_cast<counter>(i)), 0u);
  col.add(counter::gf_axpy_words, 3);
  col.add(counter::gf_axpy_words, 4);
  col.add(counter::claim_echoes, 1);
  EXPECT_EQ(col.value(counter::gf_axpy_words), 7u);
  EXPECT_EQ(col.value(counter::claim_echoes), 1u);
  EXPECT_EQ(col.value(counter::gf_scale_words), 0u);
}

TEST(Collector, GaugesRecordMinimumAndStartUnset) {
  collector col;
  for (int i = 0; i < gauge_count; ++i)
    EXPECT_EQ(col.gauge_value(static_cast<gauge>(i)), gauge_unset);
  col.gauge_min(gauge::quorum_slack, 5);
  col.gauge_min(gauge::quorum_slack, 9);   // larger: ignored
  col.gauge_min(gauge::quorum_slack, 2);   // smaller: kept
  EXPECT_EQ(col.gauge_value(gauge::quorum_slack), 2);
  // A recorded minimum below the sentinel must still win over "unset".
  col.gauge_min(gauge::hold_surplus, -7);
  EXPECT_EQ(col.gauge_value(gauge::hold_surplus), -7);
  EXPECT_EQ(col.gauge_value(gauge::dispute_headroom), gauge_unset);
}

TEST(Collector, CounterAndGaugeNamesAreUnique) {
  for (int i = 0; i < counter_count; ++i) {
    const std::string a = counter_name(static_cast<counter>(i));
    EXPECT_NE(a, "unknown_counter");
    for (int j = i + 1; j < counter_count; ++j)
      EXPECT_NE(a, counter_name(static_cast<counter>(j)));
  }
  // The gauge table lists every gauge in enum order, each under a distinct
  // "margin_" name.
  for (std::size_t i = 0; i < gauge_table.size(); ++i) {
    const gauge_row& row = gauge_table[i];
    EXPECT_EQ(static_cast<std::size_t>(row.id), i) << row.name;
    EXPECT_EQ(std::string(gauge_name(row.id)).rfind("margin_", 0), 0u) << row.name;
    for (std::size_t j = i + 1; j < gauge_table.size(); ++j)
      EXPECT_NE(std::string(row.name), gauge_table[j].name);
  }
}

TEST(Collector, SpansNestWithParentAndDepth) {
  collector col;
  const int outer = col.open_span("phase3", 10.0);
  EXPECT_EQ(col.current_span(), outer);
  const int inner = col.open_span("dc1_claims", 11.0);
  EXPECT_EQ(col.current_span(), inner);
  col.close_span(inner, 12.0);
  const int sibling = col.open_span("dc2_crosscheck", 12.0);
  col.close_span(sibling, 13.0);
  col.close_span(outer, 14.0);
  EXPECT_EQ(col.current_span(), -1);

  const auto& spans = col.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "phase3");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "dc1_claims");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "dc2_crosscheck");
  EXPECT_EQ(spans[2].parent, outer);
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_DOUBLE_EQ(spans[0].tau_begin, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].tau_end, 14.0);
  EXPECT_DOUBLE_EQ(spans[1].tau_end, 12.0);
  EXPECT_LE(spans[0].wall_begin, spans[1].wall_begin);
  EXPECT_LE(spans[1].wall_end, spans[0].wall_end);
}

TEST(CollectorDeath, OutOfOrderCloseAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  collector col;
  const int outer = col.open_span("a", 0.0);
  col.open_span("b", 0.0);
  EXPECT_DEATH(col.close_span(outer, 1.0), "LIFO");
}

TEST(Collector, ResetClearsEverythingButKeepsEpoch) {
  collector col;
  col.add(counter::cache_lookups, 2);
  col.gauge_min(gauge::quorum_slack, 1);
  const int id = col.open_span("x", 0.0);
  col.close_span(id, 1.0);
  const double before = col.now();
  col.reset();
  EXPECT_EQ(col.value(counter::cache_lookups), 0u);
  EXPECT_EQ(col.gauge_value(gauge::quorum_slack), gauge_unset);
  EXPECT_TRUE(col.spans().empty());
  EXPECT_GE(col.now(), before);  // epoch preserved, clock still monotone
}

TEST(ScopedCollector, InstallsNestsAndRestores) {
  EXPECT_EQ(ambient_collector(), nullptr);
  collector outer_col;
  collector inner_col;
  {
    scoped_collector outer(&outer_col);
    EXPECT_EQ(ambient_collector(), &outer_col);
    count(counter::gf_mul_ops, 5);
    {
      scoped_collector inner(&inner_col);
      EXPECT_EQ(ambient_collector(), &inner_col);
      count(counter::gf_mul_ops, 7);
      {
        scoped_collector suspend(nullptr);  // suspension: counts go nowhere
        count(counter::gf_mul_ops, 100);
      }
      EXPECT_EQ(ambient_collector(), &inner_col);
    }
    EXPECT_EQ(ambient_collector(), &outer_col);
  }
  EXPECT_EQ(ambient_collector(), nullptr);
  EXPECT_EQ(outer_col.value(counter::gf_mul_ops), 5u);
  EXPECT_EQ(inner_col.value(counter::gf_mul_ops), 7u);
}

TEST(ScopedCollector, IsThreadConfined) {
  collector col;
  scoped_collector scope(&col);
  collector* seen = &col;
  std::thread([&] { seen = ambient_collector(); }).join();
  EXPECT_EQ(seen, nullptr);  // ambient is thread_local: other threads see none
  EXPECT_EQ(ambient_collector(), &col);
}

TEST(ScopedSpan, RecordsOnAmbientCollector) {
  collector col;
  scoped_collector scope(&col);
  {
    scoped_span outer("instance", 0.0);
    {
      scoped_span inner("phase1", 1.0);
      inner.end_tau(4.0);
    }
    outer.end_tau(9.0);
  }
  const auto& spans = col.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "instance");
  EXPECT_EQ(spans[1].name, "phase1");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_DOUBLE_EQ(spans[1].tau_end, 4.0);
  EXPECT_DOUBLE_EQ(spans[0].tau_end, 9.0);
}

TEST(ScopedSpan, CloseEndsEarlyAndDisarmsDestructor) {
  collector col;
  scoped_collector scope(&col);
  {
    scoped_span span("dc3_replay", 2.0);
    span.close(6.0);
    EXPECT_EQ(col.current_span(), -1);  // already closed, mid-scope
    span.close(99.0);                   // second close: no-op
    // A sibling opened after close() must be top-level, not nested under it.
    scoped_span sibling("dc4_intersection", 6.0);
    sibling.end_tau(7.0);
  }
  const auto& spans = col.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].tau_end, 6.0);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[1].depth, 0);
}

TEST(ScopedSpan, PureComputationSpanKeepsSentinelTau) {
  collector col;
  scoped_collector scope(&col);
  { scoped_span span("coding_generate"); }
  ASSERT_EQ(col.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(col.spans()[0].tau_begin, -1.0);
  EXPECT_DOUBLE_EQ(col.spans()[0].tau_end, -1.0);
}

TEST(Ambient, FreeFunctionsAreNoOpsWithoutCollector) {
  ASSERT_EQ(ambient_collector(), nullptr);
  count(counter::gf_axpy_words, 10);
  gauge_min(gauge::quorum_slack, 0);
  { scoped_span span("phase1", 0.0); span.end_tau(1.0); }
  { scoped_span span("phase3", 0.0); span.close(1.0); }
  // Nothing to observe — the point is simply that none of it crashed and no
  // state leaked into a collector installed afterwards.
  collector col;
  scoped_collector scope(&col);
  EXPECT_EQ(col.value(counter::gf_axpy_words), 0u);
  EXPECT_TRUE(col.spans().empty());
}

}  // namespace
}  // namespace nab::obs
