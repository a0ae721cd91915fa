// channel_plan's word lane against the message lane it replaced for
// phase-king. A test-local reference runs the same phase-king rounds through
// unicast / end_round / inbox, one sim::message per unicast; the production
// rounds (send_word / end_word_round / words) must match it in decisions,
// per-round tau, total bits, per-link totals, the exact trace-event
// sequence, relay tampering and the ARQ counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "bb/broadcast.hpp"
#include "bb/phase_king.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "sim/link_faults.hpp"
#include "sim/run_arena.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace nab::bb {
namespace {

/// What one reference round delivered: heard[r * n + s] is sender s's word
/// at receiver r, or nullopt when nothing (or an empty payload) arrived.
using heard_words = std::vector<std::optional<std::uint64_t>>;

/// The reference: phase-king broadcast with every round on the message
/// lane, as phase_king_broadcast ran before the word lane existed.
class message_lane_phase_king {
 public:
  message_lane_phase_king(channel_plan& channels, sim::network& net,
                          const sim::fault_set& faults, std::uint64_t value_bits,
                          pk_adversary* adv, relay_adversary* relay_adv)
      : channels_(channels),
        net_(net),
        faults_(faults),
        value_bits_(value_bits),
        adv_(adv),
        relay_adv_(relay_adv),
        participants_(channels.topology().active_nodes()),
        n_(static_cast<std::size_t>(channels.topology().universe())) {}

  std::vector<std::uint64_t> broadcast(graph::node_id source, std::uint64_t input, int f) {
    std::vector<std::uint64_t> current(n_, 0);
    current[static_cast<std::size_t>(source)] = input;
    heard_words heard = round({source}, current, -1, false);
    for (graph::node_id j : participants_)
      if (j != source && heard[at(j, source)])
        current[static_cast<std::size_t>(j)] = *heard[at(j, source)];

    const int n = static_cast<int>(participants_.size());
    for (int phase = 0; phase <= f; ++phase) {
      heard = round(participants_, current, phase, false);
      std::vector<std::uint64_t> maj(n_, 0);
      std::vector<int> mult(n_, 0);
      for (graph::node_id v : participants_) {
        std::map<std::uint64_t, int> votes;
        ++votes[current[static_cast<std::size_t>(v)]];
        for (graph::node_id s : participants_)
          if (heard[at(v, s)]) ++votes[*heard[at(v, s)]];
        int best = 0;
        std::uint64_t best_val = 0;
        for (const auto& [val, count] : votes)
          if (count > best || (count == best && val < best_val)) {
            best = count;
            best_val = val;
          }
        maj[static_cast<std::size_t>(v)] = best_val;
        mult[static_cast<std::size_t>(v)] = best;
      }
      const graph::node_id king =
          participants_[static_cast<std::size_t>(phase) % participants_.size()];
      heard = round({king}, maj, phase, true);
      for (graph::node_id v : participants_) {
        const auto i = static_cast<std::size_t>(v);
        if (2 * mult[i] > n + 2 * f || v == king)
          current[i] = maj[i];
        else
          current[i] = heard[at(v, king)] ? *heard[at(v, king)] : 0;
      }
    }
    return current;
  }

  /// Every end_round's step duration, in round order.
  std::vector<double> round_tau;

 private:
  std::size_t at(graph::node_id r, graph::node_id s) const {
    return static_cast<std::size_t>(r) * n_ + static_cast<std::size_t>(s);
  }

  /// Each sender's word to every other participant as one message, in
  /// sender-major, ascending-receiver order; a corrupt sender's word comes
  /// from the phase-king adversary. `phase` -1 is the dissemination round
  /// (tag 0).
  heard_words round(const std::vector<graph::node_id>& senders,
                    const std::vector<std::uint64_t>& values, int phase, bool king_round) {
    for (graph::node_id i : senders)
      for (graph::node_id j : participants_) {
        if (j == i) continue;
        std::uint64_t v = values[static_cast<std::size_t>(i)];
        if (faults_.is_corrupt(i) && adv_ != nullptr)
          v = adv_->exchange_value(i, j, phase, king_round, v);
        channels_.unicast(i, j, phase < 0 ? 0 : static_cast<std::uint64_t>(phase), {v},
                          value_bits_);
      }
    round_tau.push_back(channels_.end_round(net_, faults_, relay_adv_));
    heard_words heard(n_ * n_);
    for (graph::node_id j : participants_)
      for (const sim::message& m : channels_.inbox(j))
        if (!m.payload.empty()) heard[at(j, m.from)] = m.payload[0];
    return heard;
  }

  channel_plan& channels_;
  sim::network& net_;
  const sim::fault_set& faults_;
  std::uint64_t value_bits_;
  pk_adversary* adv_;
  relay_adversary* relay_adv_;
  std::vector<graph::node_id> participants_;
  std::size_t n_;
};

/// Each step's tau recomputed from a trace the way network::end_step
/// computes it: the slowest link's bits over its capacity, times the link's
/// fixed dilation when a fault model is attached.
std::vector<double> step_taus(const sim::trace& t, const graph::digraph& g, int steps,
                              const sim::link_fault_model* model) {
  const int n = g.universe();
  std::vector<std::vector<std::uint64_t>> bits(
      static_cast<std::size_t>(steps), std::vector<std::uint64_t>(static_cast<std::size_t>(n) * n));
  for (const sim::trace_event& e : t.events())
    bits[static_cast<std::size_t>(e.step)][static_cast<std::size_t>(e.from) * n + e.to] += e.bits;
  std::vector<double> taus;
  for (const auto& step : bits) {
    double tau = 0.0;
    for (graph::node_id u = 0; u < n; ++u)
      for (graph::node_id v = 0; v < n; ++v) {
        const std::uint64_t b = step[static_cast<std::size_t>(u) * n + v];
        if (b == 0) continue;
        double link = static_cast<double>(b) / static_cast<double>(g.cap(u, v));
        if (model != nullptr) link *= model->time_dilation(u, v, n);
        tau = std::max(tau, link);
      }
    taus.push_back(tau);
  }
  return taus;
}

/// Corrupt nodes report a word keyed by the receiver, splitting honest
/// opinion; as king or source they equivocate too.
class splitter : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t) override {
    return receiver % 2;
  }
};

/// Replaces every relayed copy with `forged`, counting the calls and
/// checking that the hook sees the one-word message it stands for.
class forger : public relay_adversary {
 public:
  explicit forger(sim::payload forged) : forged_(std::move(forged)) {}
  std::optional<sim::payload> tamper(const std::vector<graph::node_id>& path,
                                     const sim::message& m) override {
    EXPECT_EQ(m.payload.size(), 1u);
    EXPECT_EQ(path.front(), m.from);
    EXPECT_EQ(path.back(), m.to);
    ++calls;
    return forged_;
  }
  std::size_t calls = 0;

 private:
  sim::payload forged_;
};

/// Broadcasts (source, input) one after another on one network.
struct lane_case {
  lane_case(graph::digraph topology, int budget, std::vector<graph::node_id> corrupt_nodes,
            std::vector<std::pair<graph::node_id, std::uint64_t>> runs,
            std::uint64_t bits = 1)
      : g(std::move(topology)),
        f(budget),
        corrupt(std::move(corrupt_nodes)),
        broadcasts(std::move(runs)),
        value_bits(bits) {}

  graph::digraph g;
  int f;
  std::vector<graph::node_id> corrupt;
  std::vector<std::pair<graph::node_id, std::uint64_t>> broadcasts;
  std::uint64_t value_bits;
  bool equivocate = false;            ///< corrupt nodes run `splitter`
  std::optional<sim::payload> forge;  ///< corrupt relays forge this
  std::optional<sim::link_fault_params> loss;
};

/// Every link's total bits over a trace, in one pass (row-major u * n + v).
std::vector<std::uint64_t> link_totals(const sim::trace& t, int n) {
  std::vector<std::uint64_t> totals(static_cast<std::size_t>(n) * n, 0);
  for (const sim::trace_event& e : t.events())
    totals[static_cast<std::size_t>(e.from) * n + e.to] += e.bits;
  return totals;
}

/// One side of the comparison: its own network, trace, plan, collector,
/// adversaries and (same-seeded) fault model.
struct lane_run {
  std::vector<std::vector<std::uint64_t>> decided;  ///< per broadcast
  sim::trace trace;
  std::uint64_t total_bits = 0;
  int steps = 0;
  double elapsed = 0.0;
  std::uint64_t retransmits = 0, exhaustions = 0;
  std::size_t tamper_calls = 0;
  std::vector<double> round_tau;  ///< reference side only
};

enum class lane { word, message };

lane_run run_lane(const lane_case& c, lane which) {
  lane_run out;
  obs::collector col;
  obs::scoped_collector collect(&col);
  std::optional<sim::link_fault_model> model;
  std::optional<sim::scoped_link_faults> lossy;
  if (c.loss) {
    model.emplace(*c.loss, 4242);
    lossy.emplace(&*model);
  }
  sim::network net(c.g);
  net.attach_trace(&out.trace);
  const sim::fault_set faults(c.g.universe(), c.corrupt);
  channel_plan plan(c.g, c.f);
  splitter split;
  forger relay(c.forge.value_or(sim::payload{}));
  pk_adversary* adv = c.equivocate ? &split : nullptr;
  relay_adversary* relay_adv = c.forge ? &relay : nullptr;
  message_lane_phase_king reference(plan, net, faults, c.value_bits, adv, relay_adv);
  for (const auto& [source, input] : c.broadcasts) {
    if (which == lane::word) {
      const pk_result r = phase_king_broadcast(plan, net, faults, source, input, c.f,
                                               c.value_bits, adv, relay_adv);
      out.decided.push_back(r.decided);
    } else {
      out.decided.push_back(reference.broadcast(source, input, c.f));
    }
  }
  out.total_bits = net.total_bits();
  out.steps = net.steps();
  out.elapsed = net.elapsed();
  out.retransmits = col.value(obs::counter::link_retransmits);
  out.exhaustions = col.value(obs::counter::link_retry_exhaustions);
  out.tamper_calls = relay.calls;
  out.round_tau = reference.round_tau;
  return out;
}

/// Runs `c` on both lanes and compares everything observable; returns the
/// word lane's run.
lane_run expect_lanes_agree(const lane_case& c) {
  const lane_run word = run_lane(c, lane::word);
  const lane_run ref = run_lane(c, lane::message);

  EXPECT_EQ(word.decided, ref.decided);
  EXPECT_EQ(word.total_bits, ref.total_bits);
  EXPECT_EQ(word.steps, ref.steps);
  EXPECT_EQ(word.elapsed, ref.elapsed);
  EXPECT_EQ(word.retransmits, ref.retransmits);
  EXPECT_EQ(word.exhaustions, ref.exhaustions);
  EXPECT_EQ(word.tamper_calls, ref.tamper_calls);

  // Per-round tau: the reference measured each end_round; the word lane's
  // is recomputed from its wire, which must land on the same doubles.
  EXPECT_EQ(ref.round_tau.size(), static_cast<std::size_t>(ref.steps));
  std::optional<sim::link_fault_model> model;
  if (c.loss) model.emplace(*c.loss, 4242);
  const std::vector<double> word_tau =
      step_taus(word.trace, c.g, word.steps, model ? &*model : nullptr);
  EXPECT_EQ(step_taus(ref.trace, c.g, ref.steps, model ? &*model : nullptr), ref.round_tau);
  EXPECT_EQ(word_tau, ref.round_tau);

  EXPECT_EQ(link_totals(word.trace, c.g.universe()), link_totals(ref.trace, c.g.universe()));
  const auto& got = word.trace.events();
  const auto& want = ref.trace.events();
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const bool same = got[i].step == want[i].step && got[i].from == want[i].from &&
                      got[i].to == want[i].to && got[i].tag == want[i].tag &&
                      got[i].bits == want[i].bits;
    if (!same) {
      ADD_FAILURE() << "trace events diverge at event " << i;
      break;
    }
  }
  return word;
}

TEST(WordLane, MatchesMessageLaneOnEmulatedRoutes) {
  // Hypercubes lack most direct links, so every unicast crosses 2f+1
  // node-disjoint multi-hop routes. Corrupt nodes equivocate as senders,
  // sources and kings, and forge every copy they relay (outvoted: at most
  // f of a pair's routes cross them).
  for (const bool forge : {false, true}) {
    SCOPED_TRACE(forge ? "forging relays" : "honest relays");
    lane_case q4{graph::hypercube(4), 1, {3}, {{0, 1}, {3, 1}, {9, 0}}};
    q4.equivocate = true;
    if (forge) q4.forge = sim::payload{666};
    expect_lanes_agree(q4);

    lane_case q5{graph::hypercube(5, 2), 2, {5, 18}, {{0, 1}, {5, 0}, {17, 1}}};
    q5.equivocate = true;
    if (forge) q5.forge = sim::payload{666};
    expect_lanes_agree(q5);
  }
}

TEST(WordLane, MatchesMessageLaneOnDirectLinks) {
  // K_9, f = 2: every pair is one direct link, so relays never see a copy.
  lane_case k9{graph::complete(9), 2, {2, 7}, {}, 64};
  for (graph::node_id s = 0; s < 9; ++s)
    k9.broadcasts.push_back({s, static_cast<std::uint64_t>(1000 + s)});
  k9.equivocate = true;
  k9.forge = sim::payload{666};
  expect_lanes_agree(k9);
}

TEST(WordLane, MatchesMessageLaneUnderBurstyLoss) {
  // Gilbert-Elliott bursts with a short retry budget: retransmissions and
  // exhausted copies (words never heard) must replay draw for draw.
  sim::link_fault_params bursty = sim::parse_loss_spec("bursty");
  bursty.retry_budget = 1;
  for (const bool direct : {false, true}) {
    lane_case c{direct ? graph::complete(9) : graph::hypercube(4), direct ? 2 : 1,
                {3}, {{0, 1}, {3, 0}, {6, 1}}};
    c.equivocate = true;
    c.forge = sim::payload{666};
    c.loss = bursty;
    const lane_run word = expect_lanes_agree(c);
    EXPECT_GT(word.retransmits, 0u);
    EXPECT_GT(word.exhaustions, 0u);
  }
}

TEST(WordLane, ForgedEmptyWordIsNotHeard) {
  // K_4 minus 0<->3 with f = 0: each of 0->3 and 3->0 has one route, through
  // relay 1 or 2, and both relays forge an empty payload. Node 3 hears
  // neither the source's word nor king 0's, so it starts from 0, is not
  // confident (2 of 4 votes for 5), and takes the missing king word's
  // default 0; everyone else decides the source's 5.
  graph::digraph g = graph::complete(4);
  g.remove_edge_pair(0, 3);
  lane_case c{g, 0, {1, 2}, {{0, 5}}, 8};
  c.forge = sim::payload{};
  const lane_run word = expect_lanes_agree(c);
  EXPECT_EQ(word.decided[0], (std::vector<std::uint64_t>{5, 5, 5, 0}));
  EXPECT_GT(word.tamper_calls, 0u);

  // On the lane itself: an empty winner is not heard (not a heard 0), and a
  // forged multi-word winner delivers its first word.
  channel_plan plan(g, 0);
  sim::network net(g);
  const sim::fault_set faults(4, {1, 2});
  forger empty(sim::payload{});
  plan.send_word(0, 3, 0, 5, 8);
  plan.send_word(0, 1, 0, 5, 8);
  plan.end_word_round(net, faults, &empty);
  EXPECT_FALSE(plan.words().heard(3, 0));
  ASSERT_TRUE(plan.words().heard(1, 0));  // direct link: no relay to forge
  EXPECT_EQ(plan.words().value(1, 0), 5u);
  forger longer(sim::payload{9, 4});
  plan.send_word(0, 3, 0, 5, 8);
  plan.end_word_round(net, faults, &longer);
  ASSERT_TRUE(plan.words().heard(3, 0));
  EXPECT_EQ(plan.words().value(3, 0), 9u);
  EXPECT_FALSE(plan.words().heard(1, 0));  // inboxes clear every round
}

TEST(WordLane, ZeroBitWordThrows) {
  // A word is content, so it must be charged, on direct and emulated
  // channels alike (cf. Channels.ZeroBitUnicastWithPayloadThrows).
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  channel_plan plan(g, 1);
  EXPECT_THROW(plan.send_word(0, 3, 0, 7, 0), nab::error);
  EXPECT_THROW(plan.send_word(0, 1, 0, 7, 0), nab::error);
  EXPECT_NO_THROW(plan.send_word(0, 3, 0, 7, 1));
}

#if GTEST_HAS_DEATH_TEST
TEST(WordLaneDeathTest, MessageTrafficQueuedAtWordRoundEndAborts) {
  EXPECT_DEATH(
      {
        const graph::digraph g = graph::complete(3);
        channel_plan plan(g, 0);
        sim::network net(g);
        plan.unicast(0, 1, 0, {1}, 1);
        plan.end_word_round(net, sim::fault_set(3));
      },
      "message-lane traffic");
}
#endif

TEST(WordLane, FlagBroadcastAllocatesFarBelowOnePerUnicast) {
  // Phase-king flags on hypercube(5), f = 2: 32 sources, each sending 31
  // dissemination words and then, in each of 3 phases, 32 * 31 all-to-all
  // words and 31 king words: 32 * (31 + 3 * (992 + 31)) = 99,200 logical
  // unicasts. The message lane built an arena payload per unicast; the
  // word lane must stay under one allocation per ten unicasts.
  const graph::digraph g = graph::hypercube(5, 2);
  const sim::fault_set faults(32);
  channel_plan plan(g, 2);
  std::vector<bool> flags(32, false);
  flags[7] = true;
  sim::run_arena arena;
  sim::scoped_run_arena pooled(&arena);
  std::uint64_t allocs = 0;
  for (int call = 0; call < 2; ++call) {
    sim::network net(g);
    const std::uint64_t before = arena.total_allocations();
    const flags_outcome out =
        broadcast_flags_phase_king(plan, net, faults, flags, 2, g.active_nodes());
    allocs = arena.total_allocations() - before;
    for (graph::node_id v = 0; v < 32; ++v) EXPECT_TRUE(out.agreed[7][static_cast<std::size_t>(v)]);
  }
  std::printf("[ measure ] phase-king flags, hypercube(5) f=2: %llu arena allocations "
              "for 99,200 unicasts\n",
              static_cast<unsigned long long>(allocs));
  EXPECT_LT(allocs, 99'200u / 10) << allocs << " arena allocations";
  plan.reclaim_round_storage();
}

}  // namespace
}  // namespace nab::bb
