// Property test for the arena-backed simulation memory: running the
// classical-BB engines (EIG, phase-king) and whole NAB sessions with the
// per-run arena must be byte-identical to the seed heap path — same
// decisions, same transcripts, same dispute evidence, same simulated time
// and wire bits — across every registry preset topology and across honest,
// equivocating, and dropping adversaries. The arena may only change where
// bytes live, never what they are.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "bb/broadcast.hpp"
#include "core/omega_cache.hpp"
#include "core/session.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/scenario.hpp"
#include "sim/run_arena.hpp"
#include "util/rng.hpp"

namespace nab {
namespace {

// --- EIG-level adversaries: the three behaviors the satellite names. ---

/// Equivocates in round 1: even receivers see 1, odd receivers see 0.
class equivocating_eig : public bb::eig_adversary {
 public:
  bb::value source_value(graph::node_id, graph::node_id receiver,
                         const bb::value&) override {
    return {receiver % 2 == 0 ? 1u : 0u};
  }
};

/// Drops every relay (empty value = "not sending", the model's default).
class dropping_eig : public bb::eig_adversary {
 public:
  bb::value relay_value(graph::node_id, graph::node_id,
                        const std::vector<graph::node_id>&,
                        const bb::value&) override {
    return {};
  }
};

enum class eig_behavior { honest, equivocating, dropping };

struct flags_run {
  std::vector<std::vector<bool>> agreed;
  double elapsed = 0.0;
  std::uint64_t bits = 0;
  int steps = 0;
};

/// One batched flag broadcast (NAB step 2.2 shape) over `g` with the first
/// non-source active node corrupt (when f > 0), with or without pooling.
flags_run run_flag_broadcast(const graph::digraph& g, int f, eig_behavior behavior,
                             bool pooled) {
  sim::run_arena arena;
  sim::scoped_run_arena scope(pooled ? &arena : nullptr);
  {
    sim::network net(g);
    bb::channel_plan plan(g, f,
                          core::omega_cache::instance().channel_routes_for(g, f));
    const auto active = g.active_nodes();
    std::vector<graph::node_id> corrupt;
    if (f > 0 && active.size() > 1) corrupt.push_back(active[1]);
    sim::fault_set faults(g.universe(), corrupt);
    std::vector<bool> flags(static_cast<std::size_t>(g.universe()), false);
    for (std::size_t i = 0; i < active.size(); ++i)
      flags[static_cast<std::size_t>(active[i])] = i % 2 == 1;

    equivocating_eig equivocator;
    dropping_eig dropper;
    bb::eig_adversary* adv = nullptr;
    if (behavior == eig_behavior::equivocating) adv = &equivocator;
    if (behavior == eig_behavior::dropping) adv = &dropper;

    const bb::flags_outcome out =
        bb::broadcast_flags(plan, net, faults, flags, f, active, adv);
    return {out.agreed, net.elapsed(), net.total_bits(), net.steps()};
  }
  // arena (and every pooled container, destroyed above) dies here.
}

/// Registry presets as unique (topology, f) pairs, mirroring the runner's
/// feasibility rules (32 reseed attempts for random generators; EIG cost is
/// capped by limiting f to 1 beyond 16 nodes). Frontier-scale presets
/// (n > 64) are excluded: they exercise no arena code path the n <= 64
/// presets don't, and a 128-node flag broadcast alone would multiply the
/// sweep's wall time — the frontier presets are covered by the perf smoke.
std::vector<std::pair<graph::digraph, int>> registry_topologies() {
  std::vector<std::pair<graph::digraph, int>> out;
  std::map<std::string, bool> seen;
  for (const auto& family : runtime::registry()) {
    for (const auto& sc : family.expand()) {
      const auto& t = sc.topology;
      if (runtime::topology_nodes(t) > 64) continue;
      const int f = runtime::topology_nodes(t) > 16 ? std::min(sc.f, 1) : sc.f;
      std::ostringstream key;
      key << runtime::to_string(t.kind) << ':' << t.n << ':' << t.param_a << ':'
          << t.param_b << ':' << t.cap_lo << ':' << t.cap_hi << ':' << f;
      if (seen.emplace(key.str(), true).second == false) continue;
      bool added = false;
      for (int attempt = 0; attempt < 32 && !added; ++attempt) {
        rng rand(0xe901u + static_cast<std::uint64_t>(attempt));
        graph::digraph g = runtime::build_topology(t, rand);
        // Unlike the runner we always require full channel feasibility
        // (even at f=0 a flag broadcast needs a strongly connected graph).
        if (g.universe() >= 3 * f + 1 &&
            core::omega_cache::instance().connectivity_at_least(g, 2 * f + 1)) {
          out.emplace_back(std::move(g), f);
          added = true;
        }
      }
    }
  }
  return out;
}

TEST(EigArenaEquivalence, FlagBroadcastsMatchAcrossRegistryPresets) {
  const auto presets = registry_topologies();
  ASSERT_GT(presets.size(), 10u);  // the registry really was swept
  for (const auto& [g, f] : presets) {
    for (eig_behavior behavior :
         {eig_behavior::honest, eig_behavior::equivocating, eig_behavior::dropping}) {
      const flags_run pooled = run_flag_broadcast(g, f, behavior, true);
      const flags_run heap = run_flag_broadcast(g, f, behavior, false);
      const std::string ctx = "n=" + std::to_string(g.universe()) +
                              " f=" + std::to_string(f) + " behavior=" +
                              std::to_string(static_cast<int>(behavior));
      EXPECT_EQ(pooled.agreed, heap.agreed) << ctx;
      EXPECT_EQ(pooled.elapsed, heap.elapsed) << ctx;
      EXPECT_EQ(pooled.bits, heap.bits) << ctx;
      EXPECT_EQ(pooled.steps, heap.steps) << ctx;
    }
  }
}

// --- Session-level equivalence: decisions, transcripts, dispute sets. ---

void expect_same_session_run(const core::session_run& a, const core::session_run& b,
                             const std::string& ctx) {
  ASSERT_EQ(a.reports.size(), b.reports.size()) << ctx;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    const std::string rctx = ctx + " instance " + std::to_string(i);
    EXPECT_EQ(ra.outputs, rb.outputs) << rctx;
    EXPECT_EQ(ra.gamma, rb.gamma) << rctx;
    EXPECT_EQ(ra.uk, rb.uk) << rctx;
    EXPECT_EQ(ra.rho, rb.rho) << rctx;
    EXPECT_EQ(ra.default_outcome, rb.default_outcome) << rctx;
    EXPECT_EQ(ra.phase1_only, rb.phase1_only) << rctx;
    EXPECT_EQ(ra.mismatch_announced, rb.mismatch_announced) << rctx;
    EXPECT_EQ(ra.dispute_phase_run, rb.dispute_phase_run) << rctx;
    EXPECT_EQ(ra.time_phase1, rb.time_phase1) << rctx;
    EXPECT_EQ(ra.time_equality_check, rb.time_equality_check) << rctx;
    EXPECT_EQ(ra.time_flags, rb.time_flags) << rctx;
    EXPECT_EQ(ra.time_phase3, rb.time_phase3) << rctx;
    EXPECT_EQ(ra.agreement, rb.agreement) << rctx;
    EXPECT_EQ(ra.validity, rb.validity) << rctx;
    EXPECT_EQ(ra.new_disputes, rb.new_disputes) << rctx;
    EXPECT_EQ(ra.newly_convicted, rb.newly_convicted) << rctx;
  }
  EXPECT_EQ(a.disputes.pairs(), b.disputes.pairs()) << ctx;
  EXPECT_EQ(a.disputes.convicted(), b.disputes.convicted()) << ctx;
  EXPECT_EQ(a.stats.instances, b.stats.instances) << ctx;
  EXPECT_EQ(a.stats.dispute_phases, b.stats.dispute_phases) << ctx;
  EXPECT_EQ(a.stats.elapsed, b.stats.elapsed) << ctx;
  EXPECT_EQ(a.stats.bits_broadcast, b.stats.bits_broadcast) << ctx;
}

/// Silent relay: forwards nothing in Phase 1 (dropping at the session level).
class dropping_relay : public core::nab_adversary {
 public:
  core::chunk phase1_forward_chunk(int, graph::node_id, graph::node_id,
                                   const core::chunk&) override {
    return {};
  }
};

core::session_run run_one(const graph::digraph& g, int f,
                          const std::vector<graph::node_id>& corrupt,
                          core::nab_adversary* adv, bb::bb_protocol flag_protocol,
                          bool pooled) {
  core::session_config cfg;
  cfg.g = g;
  cfg.f = f;
  cfg.flag_protocol = flag_protocol;
  cfg.pool_memory = pooled;
  sim::fault_set faults(g.universe(), corrupt);
  return core::run_session(std::move(cfg), faults, adv, /*q=*/5,
                           /*words_per_input=*/16, /*seed=*/0xfeed);
}

TEST(EigArenaEquivalence, SessionsMatchAcrossAdversaryStrategies) {
  const graph::digraph k7 = graph::complete(7);

  // Honest (corrupt set present, passive).
  expect_same_session_run(run_one(k7, 2, {2, 5}, nullptr, bb::bb_protocol::eig, true),
                          run_one(k7, 2, {2, 5}, nullptr, bb::bb_protocol::eig, false),
                          "honest");

  // Equivocating source (minority victims) — disputes via DC2.
  {
    core::equivocating_source adv_a({1, 3});
    core::equivocating_source adv_b({1, 3});
    expect_same_session_run(
        run_one(k7, 2, {0, 4}, &adv_a, bb::bb_protocol::eig, true),
        run_one(k7, 2, {0, 4}, &adv_b, bb::bb_protocol::eig, false), "equivocate");
  }

  // Dropping relay — default-value handling through every phase.
  {
    dropping_relay adv_a;
    dropping_relay adv_b;
    expect_same_session_run(
        run_one(k7, 2, {3, 6}, &adv_a, bb::bb_protocol::eig, true),
        run_one(k7, 2, {3, 6}, &adv_b, bb::bb_protocol::eig, false), "drop");
  }

  // Chaos (seeded fuzzing through all hooks) — the widest transcript churn.
  {
    core::chaos_adversary adv_a(0xc4a05, 0.7);
    core::chaos_adversary adv_b(0xc4a05, 0.7);
    expect_same_session_run(
        run_one(k7, 2, {1, 4}, &adv_a, bb::bb_protocol::eig, true),
        run_one(k7, 2, {1, 4}, &adv_b, bb::bb_protocol::eig, false), "chaos");
  }

  // Phase-king flag engine (n > 4f) with a false flag forcing Phase 3.
  {
    core::false_flagger adv_a;
    core::false_flagger adv_b;
    const graph::digraph k9 = graph::complete(9);
    expect_same_session_run(
        run_one(k9, 2, {2, 7}, &adv_a, bb::bb_protocol::phase_king, true),
        run_one(k9, 2, {2, 7}, &adv_b, bb::bb_protocol::phase_king, false),
        "phase-king");
  }
}

TEST(EigArenaEquivalence, SessionsMatchOnSparseEmulatedChannels) {
  // Remove a link so flag/claim broadcasts emulate channels over 2f+1
  // disjoint paths (the majority-vote code path), with a stealthy disputer.
  graph::digraph g = graph::complete(6, 2);
  g.remove_edge_pair(0, 3);
  core::stealth_disputer adv_a;
  core::stealth_disputer adv_b;
  expect_same_session_run(run_one(g, 1, {4}, &adv_a, bb::bb_protocol::eig, true),
                          run_one(g, 1, {4}, &adv_b, bb::bb_protocol::eig, false),
                          "stealth/emulated");
}

}  // namespace
}  // namespace nab
