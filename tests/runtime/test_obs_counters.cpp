// The obs counters' own contracts at the runtime layer: deterministic
// counters actually populate on real runs (a zero gf_ops on a certified
// run means an instrumentation site was lost), they are bit-identical
// between pooled and unpooled sessions, each is exported once under its
// set, and span capture stays opt-in so BENCH_runtime.json is byte-stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "sim/faults.hpp"

namespace nab::runtime {
namespace {

TEST(ObsCounters, PopulateOnACertifiedRun) {
  // fig1 runs on the paper's K7-class graphs: small enough to certify, so
  // every GF kernel family and the certifier counters must all fire.
  const std::vector<scenario> sweep = select_scenarios("fig1");
  ASSERT_FALSE(sweep.empty());
  const run_record r = execute_scenario(sweep.front(), 0, 11);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(obs::gf_ops(r.counters), 0u);
  EXPECT_GT(r.counters[obs::counter::gf_axpy_words], 0u);
  EXPECT_GT(r.counters[obs::counter::gf_rows_eliminated], 0u);
  EXPECT_GT(r.counters[obs::counter::cert_subgraphs], 0u);
  // fig1 runs fault-free: omega is the whole graph, so the f = 1
  // leave-one-out certifier must NOT have engaged.
  EXPECT_EQ(r.counters[obs::counter::cert_loo_downdates], 0u);
  EXPECT_GT(r.counters[obs::counter::cache_lookups], 0u);
  // fig1's front scenario is honest: no dispute phase ran, so the headroom
  // gauge keeps its -1 "never exercised" sentinel like the quorum gauges
  // (tests/runtime/test_margins.cpp pins the disputed cases).
  ASSERT_EQ(r.dispute_phases, 0);
  EXPECT_EQ(r.gauges[obs::gauge::dispute_headroom], -1);
  // Phase wall totals are recorded even without span capture.
  EXPECT_FALSE(r.timing.wall_by_phase.empty());
  bool saw_phase1 = false;
  for (const auto& [phase, secs] : r.timing.wall_by_phase) {
    EXPECT_GE(secs, 0.0);
    saw_phase1 = saw_phase1 || phase == "phase1";
  }
  EXPECT_TRUE(saw_phase1);
}

TEST(ObsCounters, LeaveOneOutCertifierCountsOneDowndatePerSubgraph) {
  // An f = 1 run whose active set sits exactly at target + 1 takes the
  // leave-one-out certifier: every Omega member is checked by a rank
  // downdate of the shared full factorization, never by its own
  // re-factorization, so the two counters must advance in lockstep. K7 at
  // f = 1 (active = 7 = target + 1) is the cheapest registry scenario with
  // that shape.
  const std::vector<scenario> sweep = select_scenarios("complete");
  const scenario* loo = nullptr;
  for (const scenario& s : sweep)
    if (s.topology.n == 7 && s.f == 1 && s.adversary == adversary_kind::honest)
      loo = &s;
  ASSERT_NE(loo, nullptr);
  const run_record r = execute_scenario(*loo, 0, 11);
  ASSERT_TRUE(r.ok()) << r.scenario;
  EXPECT_GT(r.counters[obs::counter::cert_loo_downdates], 0u);
  EXPECT_EQ(r.counters[obs::counter::cert_loo_downdates],
            r.counters[obs::counter::cert_subgraphs]);
  // The leave-one-out path never touches the sparse prefix walk.
  EXPECT_EQ(r.counters[obs::counter::cert_prefix_pushes], 0u);
  EXPECT_EQ(r.counters[obs::counter::cert_prefix_pops], 0u);
  // Counter determinism: an identical re-execution reproduces the record.
  EXPECT_EQ(r, execute_scenario(*loo, 0, 11));
}

TEST(ObsCounters, ClaimTalliesAndMarginsOnDisputedCollapsedRuns) {
  // The collapsed-backend ablation runs adversaries that force dispute
  // phases, so the echo/ready tallies and the quorum-margin gauges engage.
  const std::vector<scenario> sweep = select_scenarios("ablation-claims");
  bool saw_collapsed_dispute = false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].claim_backend != bb::claim_backend::collapsed) continue;
    const run_record r = execute_scenario(sweep[i], static_cast<int>(i), 5);
    ASSERT_TRUE(r.ok()) << r.scenario;
    if (r.dispute_phases == 0) continue;
    saw_collapsed_dispute = true;
    EXPECT_GT(r.counters[obs::counter::claim_echoes], 0u) << r.scenario;
    EXPECT_GT(r.counters[obs::counter::claim_readys], 0u) << r.scenario;
    // Quorums were met, so the recorded minima are true non-negative slack.
    EXPECT_GE(r.gauges[obs::gauge::quorum_slack], 0) << r.scenario;
    EXPECT_GE(r.gauges[obs::gauge::hold_surplus], 0) << r.scenario;
    EXPECT_LE(r.gauges[obs::gauge::dispute_headroom],
              static_cast<std::int64_t>(r.f) * (r.f + 1));
  }
  EXPECT_TRUE(saw_collapsed_dispute);
}

TEST(ObsCounters, IdenticalAcrossPooledAndUnpooledSessions) {
  // Same contract the arena-equivalence suite pins for outputs, extended to
  // the deterministic counter set: pooling is invisible to everything but
  // the arena_* machine counters.
  const auto run_counted = [](bool pooled) {
    core::session_config cfg;
    cfg.g = graph::complete(7);
    cfg.f = 2;
    cfg.pool_memory = pooled;
    sim::fault_set faults(7, {2, 5});
    obs::collector col;
    obs::scoped_collector scope(&col);
    core::run_session(std::move(cfg), faults, nullptr, /*q=*/3,
                      /*words_per_input=*/16, /*seed=*/0xbeef);
    return col;
  };
  const obs::collector pooled = run_counted(true);
  const obs::collector unpooled = run_counted(false);
  for (const obs::counter_row& row : obs::counter_table) {
    if (row.set == obs::counter_set::machine)
      continue;  // allowed (and expected) to differ
    EXPECT_EQ(pooled.value(row.id), unpooled.value(row.id)) << row.name;
  }
  for (const obs::gauge_row& row : obs::gauge_table)
    EXPECT_EQ(pooled.gauge_value(row.id), unpooled.gauge_value(row.id)) << row.name;
  // Span structure (names and depths, in order) must match too — modulo the
  // documented omega_cache caveat: fill spans appear only on the run that
  // pays the process-wide miss, which here is the first session.
  const auto protocol_spans = [](const obs::collector& col) {
    std::vector<std::pair<std::string, int>> out;
    for (const obs::span_record& s : col.spans())
      if (s.name.rfind("omega_cache/", 0) != 0) out.emplace_back(s.name, s.depth);
    return out;
  };
  EXPECT_EQ(protocol_spans(pooled), protocol_spans(unpooled));
}

TEST(ObsCounters, SpanCaptureIsOptIn) {
  const std::vector<scenario> sweep = select_scenarios("fig1");
  const run_record bare = execute_scenario(sweep.front(), 0, 11);
  const run_record timed = execute_scenario(sweep.front(), 0, 11,
                                            /*capture_trace=*/false,
                                            /*capture_spans=*/true);
  EXPECT_TRUE(bare.timing.spans.empty());
  ASSERT_FALSE(timed.timing.spans.empty());
  // Capture must not perturb the record: the determinism contract already
  // ignores timing, and the deterministic fields agree exactly.
  EXPECT_EQ(bare, timed);
  // The span list is a forest: ids are positional, parents precede children.
  for (std::size_t i = 0; i < timed.timing.spans.size(); ++i) {
    const obs::span_record& s = timed.timing.spans[i];
    EXPECT_EQ(s.id, static_cast<int>(i));
    EXPECT_LT(s.parent, s.id);
    EXPECT_GE(s.wall_end, s.wall_begin);
  }
}

TEST(ObsCounters, EveryCounterRowIsExportedOnceUnderItsSet) {
  // The counter table is the only declaration: each row appears exactly
  // once in the exported record, under its obs name — deterministic rows at
  // the top level, machine rows only inside "timing".
  const std::vector<scenario> sweep = select_scenarios("fig1");
  const run_record r = execute_scenario(sweep.front(), 0, 11);
  const json doc = r.to_json(/*include_timing=*/true);
  const json* timing = doc.find("timing");
  ASSERT_NE(timing, nullptr);
  const auto occurrences = [](const json& obj, std::string_view key) {
    return std::count_if(obj.members().begin(), obj.members().end(),
                         [&](const auto& m) { return m.first == key; });
  };
  for (const obs::counter_row& row : obs::counter_table) {
    const bool machine = row.set == obs::counter_set::machine;
    EXPECT_EQ(occurrences(doc, row.name), machine ? 0 : 1) << row.name;
    EXPECT_EQ(occurrences(*timing, row.name), machine ? 1 : 0) << row.name;
    const json* v = (machine ? timing : &doc)->find(row.name);
    ASSERT_NE(v, nullptr) << row.name;
    const std::uint64_t want =
        machine ? r.timing.counters[row.id] : r.counters[row.id];
    EXPECT_EQ(static_cast<std::uint64_t>(v->int_value()), want) << row.name;
  }
  // gf_ops is derived at export: the sum of the four exported gf_* keys.
  std::int64_t gf_sum = 0;
  for (const char* key :
       {"gf_axpy_words", "gf_scale_words", "gf_mul_ops", "gf_rows_eliminated"})
    gf_sum += doc.find(key)->int_value();
  ASSERT_NE(doc.find("gf_ops"), nullptr);
  EXPECT_EQ(doc.find("gf_ops")->int_value(), gf_sum);
}

TEST(ObsCounters, EveryGaugeRowIsExportedOnce) {
  // The gauge table is the only declaration: each row appears exactly once
  // at the top level of the exported record (never under "timing"), each
  // corpus entry carries exactly the scored rows, and margin_score sums the
  // scored rows. Every row gets a distinct value and one scored row stays
  // unset, so a swapped, dropped or unscored key shows.
  run_record r;
  for (const obs::gauge_row& row : obs::gauge_table)
    r.gauges[row.id] = 10 + static_cast<std::int64_t>(row.id);
  r.gauges[obs::gauge::hold_surplus] = obs::gauge_unset;
  const auto occurrences = [](const json& obj, std::string_view key) {
    return std::count_if(obj.members().begin(), obj.members().end(),
                         [&](const auto& m) { return m.first == key; });
  };
  const json doc = r.to_json(/*include_timing=*/true);
  const json* timing = doc.find("timing");
  ASSERT_NE(timing, nullptr);
  for (const obs::gauge_row& row : obs::gauge_table) {
    EXPECT_EQ(occurrences(doc, row.name), 1) << row.name;
    EXPECT_EQ(occurrences(*timing, row.name), 0) << row.name;
    ASSERT_NE(doc.find(row.name), nullptr) << row.name;
    EXPECT_EQ(doc.find(row.name)->int_value(), r.gauges[row.id]) << row.name;
  }

  hunt_corpus corpus;
  corpus_entry e;
  e.context = "ctx";
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored) e.margins[row.id] = r.gauges[row.id];
  corpus.champions.push_back(e);
  const json corpus_doc = corpus_document(corpus);
  const json& entry = corpus_doc.find("champions")->elements().front();
  std::int64_t want_score = 0;
  int scored = 0;
  for (const obs::gauge_row& row : obs::gauge_table) {
    EXPECT_EQ(occurrences(entry, row.name), row.scored ? 1 : 0) << row.name;
    if (!row.scored) continue;
    ++scored;
    EXPECT_EQ(entry.find(row.name)->int_value(), r.gauges[row.id]) << row.name;
    want_score += r.gauges[row.id] == obs::gauge_unset ? 1000 : r.gauges[row.id];
  }
  EXPECT_GT(scored, 0);
  EXPECT_LT(scored, obs::gauge_count);
  EXPECT_EQ(corpus_from_text(corpus_doc.dump()).champions.front(), e);
  EXPECT_EQ(margin_score(r), want_score);
}

TEST(ObsCounters, ClaimFallbacksCounterMatchesReplayedSession) {
  // claim_fallbacks is the one count of retrieval fallbacks: the record
  // carries what the run's collector saw. hunted_k9_hold (run 78 of the
  // seed-1 sweep) needs three; drive the same session the runner drives —
  // same seeds, topology, corrupt set and adversary — under a collector of
  // its own, and check the recorded counter against it.
  const std::vector<scenario> sweep = select_scenarios("hunted_k9_hold");
  ASSERT_EQ(sweep.size(), 1u);
  const scenario& s = sweep.front();
  const int run_index = 78;
  const std::uint64_t sweep_seed = 1;
  const run_record rec = execute_scenario(s, run_index, sweep_seed);
  ASSERT_TRUE(rec.ok());

  const std::uint64_t run_seed =
      derive_run_seed(sweep_seed, static_cast<std::uint64_t>(run_index));
  rng topo_rand(0);  // K_9 at unit capacity: the generator draws nothing
  core::session_config cfg;
  cfg.g = build_topology(s.topology, topo_rand);
  cfg.f = s.f;  // cfg.source stays node 0, as in the runner
  cfg.coding_seed = splitmix64(run_seed ^ 0x5eedULL);
  cfg.propagation = s.propagation;
  cfg.flag_protocol = s.flag_protocol;
  cfg.claim_backend = s.claim_backend;
  cfg.pool_memory = s.pool_memory;
  sim::fault_set faults(cfg.g.universe(), rec.corrupt);
  const auto adv = make_adversary(s.adversary, splitmix64(run_seed ^ 0xadbeefULL),
                                  1, s.genome);
  obs::collector replay;
  obs::scoped_collector on(&replay);
  const core::session_run run = core::run_session(
      std::move(cfg), faults, adv.get(), s.instances, s.words,
      splitmix64(run_seed ^ 0x1235813ULL), s.rotate_sources);

  // The replica is the recorded run ...
  ASSERT_EQ(run.stats.bits_broadcast, rec.bits_broadcast);
  ASSERT_EQ(run.stats.dispute_phases, rec.dispute_phases);
  ASSERT_EQ(run.stats.claim_bits, rec.dc1_claim_bits);
  // ... and its count is what the record carries.
  EXPECT_EQ(replay.value(obs::counter::claim_fallbacks), 3u);
  EXPECT_EQ(rec.counters[obs::counter::claim_fallbacks],
            replay.value(obs::counter::claim_fallbacks));
}

}  // namespace
}  // namespace nab::runtime
