// Failure-injection scenarios beyond the uniform sweeps: colluders
// attacking through different phases at once, silence (default-value
// handling), corruption inside the classical-BB subprotocols, and
// adversaries that lie only in their Phase-3 claims.

#include <gtest/gtest.h>

#include <memory>

#include "core/nab.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

void expect_contract(const std::vector<instance_report>& reports) {
  for (const auto& r : reports) {
    EXPECT_TRUE(r.agreement) << "instance " << r.index;
    EXPECT_TRUE(r.validity) << "instance " << r.index;
  }
}

void expect_soundness(const session& s, const sim::fault_set& faults, int f) {
  for (const auto& [a, b] : s.disputes().pairs())
    EXPECT_TRUE(faults.is_corrupt(a) || faults.is_corrupt(b));
  for (graph::node_id v : s.disputes().convicted())
    EXPECT_TRUE(faults.is_corrupt(v));
  EXPECT_LE(s.stats().dispute_phases, f * (f + 1));
}

TEST(FailureInjection, CollusionAcrossPhases) {
  // Node 1 garbles Phase-1 shares while node 4 lies in the Equality Check —
  // heterogeneous simultaneous attacks via the composite adversary.
  const graph::digraph g = graph::complete(7);
  sim::fault_set faults(7, {1, 4});
  phase1_corruptor p1;
  phase2_liar p2(99);
  composite_adversary combo;
  combo.assign(1, &p1);
  combo.assign(4, &p2);
  session s({.g = g, .f = 2}, faults, &combo);
  rng rand(1);
  expect_contract(s.run_many(6, 8, rand));
  expect_soundness(s, faults, 2);
  // Both attackers leave evidence.
  bool evidence_on_1 = s.disputes().is_convicted(1);
  bool evidence_on_4 = s.disputes().is_convicted(4);
  for (const auto& [a, b] : s.disputes().pairs()) {
    evidence_on_1 = evidence_on_1 || a == 1 || b == 1;
    evidence_on_4 = evidence_on_4 || a == 4 || b == 4;
  }
  EXPECT_TRUE(evidence_on_1);
  EXPECT_TRUE(evidence_on_4);
}

TEST(FailureInjection, CorruptSourceAndRelayTogether) {
  const graph::digraph g = graph::complete(7);
  sim::fault_set faults(7, {0, 3});
  equivocating_source src({2, 5});
  phase1_corruptor relay;
  composite_adversary combo;
  combo.set_source(0);
  combo.assign(0, &src);
  combo.assign(3, &relay);
  session s({.g = g, .f = 2}, faults, &combo);
  rng rand(2);
  const auto reports = s.run_many(6, 8, rand);
  expect_contract(reports);  // validity vacuous (source corrupt), agreement must hold
  expect_soundness(s, faults, 2);
}

/// Silence: forwards nothing (empty chunk -> zero-filled default value) and
/// never sends coded symbols (empty payload of the right shape).
class silent_node : public nab_adversary {
 public:
  chunk phase1_forward_chunk(int, graph::node_id, graph::node_id,
                             const chunk&) override {
    return {};
  }
  coded_symbols phase2_coded(graph::node_id, graph::node_id,
                             const coded_symbols& honest) override {
    coded_symbols out = honest;
    for (word& w : out.words) w = 0;
    return out;
  }
};

TEST(FailureInjection, SilentNodeDefaultValueHandling) {
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {2});
  silent_node adv;
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(3);
  expect_contract(s.run_many(4, 8, rand));
  expect_soundness(s, faults, 1);
  EXPECT_TRUE(s.disputes().is_convicted(2));  // silence contradicts DC3 replay
}

/// Lies only in Phase 3: truthful protocol execution but forged claims about
/// what a victim sent — must dispute {forger, victim}, never convict the
/// honest victim.
class phase3_only_liar : public nab_adversary {
 public:
  bool phase2_flag(graph::node_id, bool) override { return true; }  // force Phase 3
  node_claims phase3_claims(graph::node_id v, const node_claims& honest) override {
    claim_forger forger(0);  // victim: the source
    return forger.phase3_claims(v, honest);
  }
};

TEST(FailureInjection, ClaimForgeryDisputesButNeverConvictsVictim) {
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {3});
  phase3_only_liar adv;
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(4);
  expect_contract(s.run_many(3, 8, rand));
  expect_soundness(s, faults, 1);
  EXPECT_FALSE(s.disputes().is_convicted(0));  // the framed victim stays in
}

/// Misbehaves inside the classical-BB sub-protocol: equivocates its flag
/// announcement within EIG (source_value hook), not just its input bit.
class bb_level_equivocator : public nab_adversary {
 public:
  bool phase2_flag(graph::node_id, bool) override { return true; }
  bb::eig_adversary* eig() override { return &eig_; }

 private:
  class split_flags : public bb::eig_adversary {
   public:
    bb::value source_value(graph::node_id, graph::node_id receiver,
                           const bb::value&) override {
      return {receiver % 2 == 0 ? 1u : 0u};
    }
  };
  split_flags eig_;
};

TEST(FailureInjection, EquivocationInsideFlagBroadcast) {
  // EIG agreement forces a single agreed flag bit despite the equivocation;
  // whatever it lands on, the instance outcome stays correct.
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {4});
  bb_level_equivocator adv;
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(5);
  expect_contract(s.run_many(4, 8, rand));
  expect_soundness(s, faults, 1);
}

/// Tampers every copy it relays on emulated BB paths (in addition to a
/// false flag that forces those paths to be used for dispute control).
class relay_tamperer : public nab_adversary {
 public:
  bool phase2_flag(graph::node_id, bool) override { return true; }
  bb::relay_adversary* relay() override { return &relay_; }

 private:
  class forge_all : public bb::relay_adversary {
   public:
    std::optional<sim::payload> tamper(
        const std::vector<graph::node_id>&, const sim::message&) override {
      return sim::payload{0xBAD, 0xBEEF};
    }
  };
  forge_all relay_;
};

TEST(FailureInjection, RelayTamperingOnEmulatedPathsIsHarmless) {
  // Remove a link so the flag/claim broadcasts must emulate that channel
  // over 2f+1 paths; the corrupt node tampers every copy it relays. The
  // majority vote must absorb it completely.
  graph::digraph g = graph::complete(5, 2);
  g.remove_edge_pair(0, 4);
  sim::fault_set faults(5, {2});
  relay_tamperer adv;
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(44);
  expect_contract(s.run_many(3, 8, rand));
  expect_soundness(s, faults, 1);
  EXPECT_TRUE(s.disputes().is_convicted(2));  // the false flag still convicts
}

/// A fault that flips ON in the middle of the Equality Check: honest for the
/// first edges of every instance, garbling from there on. Exercises the
/// per-run arena with transcripts that change character mid-phase.
class mid_phase_flipper : public nab_adversary {
 public:
  void on_instance_begin(int, const graph::digraph&) override { calls_ = 0; }
  coded_symbols phase2_coded(graph::node_id, graph::node_id,
                             const coded_symbols& honest) override {
    if (++calls_ <= 2) return honest;  // first two edges honest, then corrupt
    coded_symbols out = honest;
    for (word& w : out.words) w = static_cast<word>(w ^ 0x5a5a);
    return out;
  }

 private:
  int calls_ = 0;
};

TEST(FailureInjection, MidPhaseFaultFlipUnderSharedArena) {
  // The session runs in its thread's arena, which every session on the
  // thread shares (the fleet-worker configuration); a fault that switches
  // on mid-Equality-Check must leave the usual evidence and the arena empty
  // after every instance.
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {2});
  mid_phase_flipper adv;
  sim::run_arena& arena = sim::thread_arena();
  const std::uint64_t resets_before = arena.resets();
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(21);
  const auto reports = s.run_many(5, 8, rand);
  expect_contract(reports);
  expect_soundness(s, faults, 1);
  EXPECT_TRUE(reports.front().mismatch_announced);  // the flip was caught
  EXPECT_EQ(arena.live_allocations(), 0u);
  EXPECT_EQ(arena.resets(), resets_before + 5);
}

/// A run that aborts outright in the middle of a phase (the
/// paper-invariant-violation path: an exception unwinds out of
/// run_instance while transcripts, claim maps, and payloads are live).
class mid_phase_aborter : public nab_adversary {
 public:
  coded_symbols phase2_coded(graph::node_id, graph::node_id,
                             const coded_symbols& honest) override {
    if (++calls_ == 3) throw error("injected mid-phase fault");
    return honest;
  }

 private:
  int calls_ = 0;
};

TEST(FailureInjection, MidPhaseAbortDoesNotLeakIntoTheArena) {
  // run_arena::reset aborts the process if anything pooled survives the
  // instance epilogue, so merely *surviving* the throw proves there is no
  // use-after-reset; the session and its arena stay serviceable after.
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {2});
  mid_phase_aborter adv;
  sim::run_arena& arena = sim::thread_arena();
  const std::uint64_t resets_before = arena.resets();
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(22);
  std::vector<word> input(8, 0x1234);
  EXPECT_THROW(s.run_instance(input), error);
  EXPECT_EQ(arena.live_allocations(), 0u);
  EXPECT_GE(arena.resets(), resets_before + 1);
  // The aborter stays past its trigger; later instances run clean on the
  // same arena.
  expect_contract(s.run_many(3, 8, rand));
  expect_soundness(s, faults, 1);
  EXPECT_EQ(arena.live_allocations(), 0u);
}

TEST(FailureInjection, ChaosAtHighRateManyInstances) {
  const graph::digraph g = graph::complete(7);
  sim::fault_set faults(7, {2, 6});
  chaos_adversary adv(0xBAD, 0.8);
  session s({.g = g, .f = 2}, faults, &adv);
  rng rand(6);
  expect_contract(s.run_many(10, 8, rand));
  expect_soundness(s, faults, 2);
}

TEST(FailureInjection, AttackEventuallyStopsCostingThroughput) {
  // After the attacker is convicted or out of edges, instances are clean;
  // the tail of a long run must be dispute-free.
  const graph::digraph g = graph::complete(5, 2);
  sim::fault_set faults(5, {1});
  chaos_adversary adv(7, 0.9);
  session s({.g = g, .f = 1}, faults, &adv);
  rng rand(7);
  const auto reports = s.run_many(12, 8, rand);
  expect_contract(reports);
  for (std::size_t i = reports.size() - 4; i < reports.size(); ++i)
    EXPECT_FALSE(reports[i].dispute_phase_run) << "instance " << i;
}

}  // namespace
}  // namespace nab::core
