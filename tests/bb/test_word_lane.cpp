// channel_plan's word lane against the message lane it replaced for
// phase-king. A test-local reference runs the same phase-king rounds through
// unicast / end_round / inbox, one sim::message per unicast, each charged
// entry by entry; the production rounds (send_word / end_word_round / words)
// must match it in decisions, per-round tau, total bits, every link's bits in
// every step (the traces' records), relay tampering and the ARQ counters.
//
// On a clean network the word lane charges whole fan-outs from the route
// table's load templates, traced or not. The WordLaneTemplates tests hold
// that path to the message lane's per-entry charge: phase-king rounds run by
// production and by the reference's tally on the word lane, and hand-built
// rounds whose fan-outs are whole, partial or malformed.

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

/// Which lane the reference's rounds run on.
enum class lane { word, message };

/// The reference: phase-king broadcast with its own std::map vote tally,
/// every round on the message lane as phase_king_broadcast ran before the
/// word lane existed, or on the word lane round by round.
class reference_phase_king {
 public:
  reference_phase_king(lane on, channel_plan& channels, sim::network& net,
                       const sim::fault_set& faults, std::uint64_t value_bits,
                       pk_adversary* adv, relay_adversary* relay_adv)
      : lane_(on),
        channels_(channels),
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

  /// Every round's step duration, in round order.
  std::vector<double> round_tau;

 private:
  std::size_t at(graph::node_id r, graph::node_id s) const {
    return static_cast<std::size_t>(r) * n_ + static_cast<std::size_t>(s);
  }

  /// Each sender's word to every other participant as one message or word,
  /// in sender-major, ascending-receiver order; a corrupt sender's word
  /// comes from the phase-king adversary. `phase` -1 is the dissemination
  /// round.
  heard_words round(const std::vector<graph::node_id>& senders,
                    const std::vector<std::uint64_t>& values, int phase, bool king_round) {
    for (graph::node_id i : senders)
      for (graph::node_id j : participants_) {
        if (j == i) continue;
        std::uint64_t v = values[static_cast<std::size_t>(i)];
        if (faults_.is_corrupt(i) && adv_ != nullptr)
          v = adv_->exchange_value(i, j, phase, king_round, v);
        if (lane_ == lane::word)
          channels_.send_word(i, j, v, value_bits_);
        else
          channels_.unicast(i, j, {v}, value_bits_);
      }
    heard_words heard(n_ * n_);
    if (lane_ == lane::word) {
      round_tau.push_back(channels_.end_word_round(net_, faults_, relay_adv_));
      for (graph::node_id j : participants_)
        for (graph::node_id s : participants_)
          if (channels_.words().heard(j, s)) heard[at(j, s)] = channels_.words().value(j, s);
      return heard;
    }
    round_tau.push_back(channels_.end_round(net_, faults_, relay_adv_));
    for (graph::node_id j : participants_)
      for (const sim::message& m : channels_.inbox(j))
        if (!m.payload.empty()) heard[at(j, m.from)] = m.payload[0];
    return heard;
  }

  lane lane_;
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
/// fixed dilation when a fault model is attached. A trace holds one record
/// per link per step, so each record is one link's whole step load.
std::vector<double> step_taus(const sim::trace& t, const graph::digraph& g, int steps,
                              const sim::link_fault_model* model) {
  std::vector<double> taus(static_cast<std::size_t>(steps), 0.0);
  for (const sim::trace_event& e : t.events()) {
    double link = static_cast<double>(e.bits) / static_cast<double>(g.cap(e.from, e.to));
    if (model != nullptr) link *= model->time_dilation(e.from, e.to, g.universe());
    double& tau = taus[static_cast<std::size_t>(e.step)];
    tau = std::max(tau, link);
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

/// Corrupt source 8 gives honest nodes 0-6 the words 12, 11, 10 by
/// receiver (three 12s, two 11s, two 10s), and in every exchange corrupt 7
/// reports 11 and 8 reports 10: each honest tally reads 3-3-3. King 0
/// holds 12, the word it counts first, so only a tally that sends ties to
/// the smallest word makes everyone decide 10.
class three_way_tie : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver, int phase,
                               bool, std::uint64_t) override {
    if (phase < 0) return 12 - static_cast<std::uint64_t>(receiver % 3);
    return sender == 7 ? 11 : 10;
  }
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
  pk_adversary* pk = nullptr;         ///< else corrupt nodes run this, when set
  std::optional<sim::payload> forge;  ///< corrupt relays forge this
  std::optional<sim::link_fault_params> loss;
};

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

/// Who runs the case's rounds: production phase-king, or the reference on
/// the message lane or the word lane.
enum class engine { production, message_reference, word_reference };

lane_run run_lane(const lane_case& c, engine which) {
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
  pk_adversary* adv = c.pk != nullptr ? c.pk : c.equivocate ? &split : nullptr;
  relay_adversary* relay_adv = c.forge ? &relay : nullptr;
  reference_phase_king reference(which == engine::word_reference ? lane::word : lane::message,
                                 plan, net, faults, c.value_bits, adv, relay_adv);
  for (const auto& [source, input] : c.broadcasts) {
    if (which == engine::production) {
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

/// Runs `c` on the word lane (`word_side`: production phase-king, or the
/// reference's rounds) and on the message lane, and compares everything
/// observable; returns the word lane's run.
lane_run expect_lanes_agree(const lane_case& c, engine word_side = engine::production) {
  const lane_run word = run_lane(c, word_side);
  const lane_run ref = run_lane(c, engine::message_reference);

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

  // Every link's bits in every step.
  EXPECT_FALSE(word.trace.events().empty());
  EXPECT_EQ(word.trace.events(), ref.trace.events());
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
  plan.send_word(0, 3, 5, 8);
  plan.send_word(0, 1, 5, 8);
  plan.end_word_round(net, faults, &empty);
  EXPECT_FALSE(plan.words().heard(3, 0));
  ASSERT_TRUE(plan.words().heard(1, 0));  // direct link: no relay to forge
  EXPECT_EQ(plan.words().value(1, 0), 5u);
  forger longer(sim::payload{9, 4});
  plan.send_word(0, 3, 5, 8);
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
  EXPECT_THROW(plan.send_word(0, 3, 7, 0), nab::error);
  EXPECT_THROW(plan.send_word(0, 1, 7, 0), nab::error);
  EXPECT_NO_THROW(plan.send_word(0, 3, 7, 1));
}

#if GTEST_HAS_DEATH_TEST
TEST(WordLaneDeathTest, MessageTrafficQueuedAtWordRoundEndAborts) {
  EXPECT_DEATH(
      {
        const graph::digraph g = graph::complete(3);
        channel_plan plan(g, 0);
        sim::network net(g);
        plan.unicast(0, 1, {1}, 1);
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

/// The load templates against the message lane's per-entry charge. On a
/// clean network every whole fan-out of a word round is charged from its
/// template, so the word lane, run by production phase-king and by the
/// reference's tally, must charge every link in every step what the message
/// lane charges entry by entry, and decide and deliver what it does.
void expect_templates_match_per_entry(const lane_case& c) {
  ASSERT_FALSE(c.loss) << "a lossy network charges every entry hop by hop";
  for (const engine word_side : {engine::production, engine::word_reference}) {
    SCOPED_TRACE(word_side == engine::production ? "production" : "reference tally");
    expect_lanes_agree(c, word_side);
  }
}

TEST(WordLaneTemplates, MatchPerEntryChargeOnEmulatedRoutes) {
  // Hypercube fan-outs cross shared links many times over: a template that
  // lost a link's multiplicity would undercharge it. Corrupt nodes
  // equivocate, and with forging relays every templated word still goes
  // through the relay scan and the majority.
  for (const bool forge : {false, true}) {
    SCOPED_TRACE(forge ? "forging relays" : "honest relays");
    lane_case q4{graph::hypercube(4), 1, {3}, {{0, 1}, {3, 1}, {9, 0}}};
    q4.equivocate = true;
    if (forge) q4.forge = sim::payload{666};
    expect_templates_match_per_entry(q4);

    lane_case q5{graph::hypercube(5, 2), 2, {5, 18}, {{5, 0}}};
    q5.equivocate = true;
    if (forge) q5.forge = sim::payload{666};
    expect_templates_match_per_entry(q5);
  }
}

TEST(WordLaneTemplates, MatchPerEntryChargeOnDirectLinks) {
  for (const bool forge : {false, true}) {
    SCOPED_TRACE(forge ? "forging relays" : "honest relays");
    lane_case k9{graph::complete(9), 2, {2, 7}, {{0, 5}, {2, 9}, {7, 3}}, 64};
    k9.equivocate = true;
    if (forge) k9.forge = sim::payload{666};
    expect_templates_match_per_entry(k9);
  }
}

TEST(WordLaneTemplates, TiedVotesGoToTheSmallestWord) {
  // Three words tie 3-3-3 at every honest node (three_way_tie). The
  // reference tallies in a std::map; the production tally, on rounds
  // charged from the templates, must break the tie the same way, to the
  // smallest word.
  three_way_tie ties;
  lane_case c{graph::complete(9), 2, {7, 8}, {{8, 0}}, 8};
  c.pk = &ties;
  const lane_run word = expect_lanes_agree(c);
  for (graph::node_id v = 0; v < 7; ++v)
    EXPECT_EQ(word.decided[0][static_cast<std::size_t>(v)], 10u) << "node " << v;
}

/// One hand-built word-lane entry.
struct queued_word {
  graph::node_id from, to;
  std::uint64_t word, bits;
};

/// What ending one hand-built round showed.
struct round_outcome {
  double tau = 0.0;
  std::uint64_t total_bits = 0;
  heard_words heard;
  sim::trace trace;
};

/// Queues `entries` in order on one lane, as words or as one-word unicasts,
/// and ends one round on a fresh traced network over g.
round_outcome end_hand_built_round(const graph::digraph& g, int f,
                                   const std::vector<queued_word>& entries, lane on) {
  round_outcome out;
  channel_plan plan(g, f);
  sim::network net(g);
  net.attach_trace(&out.trace);
  const sim::fault_set faults(g.universe());
  const int n = g.universe();
  out.heard.resize(static_cast<std::size_t>(n) * n);
  if (on == lane::word) {
    for (const queued_word& e : entries) plan.send_word(e.from, e.to, e.word, e.bits);
    out.tau = plan.end_word_round(net, faults);
    for (graph::node_id r = 0; r < n; ++r)
      for (graph::node_id s = 0; s < n; ++s)
        if (plan.words().heard(r, s))
          out.heard[static_cast<std::size_t>(r) * n + s] = plan.words().value(r, s);
  } else {
    for (const queued_word& e : entries) plan.unicast(e.from, e.to, {e.word}, e.bits);
    out.tau = plan.end_round(net, faults);
    for (graph::node_id r = 0; r < n; ++r)
      for (const sim::message& m : plan.inbox(r))
        out.heard[static_cast<std::size_t>(r) * n + m.from] = m.payload[0];
  }
  out.total_bits = net.total_bits();
  return out;
}

/// A word round must charge and deliver exactly what the message lane's
/// per-entry charge does with the same entries as one-word unicasts,
/// whether or not its senders' entries make whole fan-outs.
void expect_round_charged_per_entry(const graph::digraph& g, int f,
                                    const std::vector<queued_word>& entries) {
  const round_outcome per_entry = end_hand_built_round(g, f, entries, lane::message);
  const round_outcome word = end_hand_built_round(g, f, entries, lane::word);
  EXPECT_EQ(word.tau, per_entry.tau);
  EXPECT_EQ(word.total_bits, per_entry.total_bits);
  EXPECT_EQ(word.heard, per_entry.heard);
  EXPECT_FALSE(word.trace.events().empty());
  EXPECT_EQ(word.trace.events(), per_entry.trace.events());
}

TEST(WordLaneTemplates, IrregularRoundsChargeWhatTheirEntriesDo) {
  for (const int f : {1, 2}) {
    const graph::digraph g = f == 1 ? graph::hypercube(4) : graph::complete(9);
    SCOPED_TRACE(f == 1 ? "hypercube(4), f = 1" : "K_9, f = 2");
    const int n = g.universe();
    // Every sender's whole fan-out, sender-major; each entry's word is its
    // queue position, so a misdelivered word shows.
    std::vector<queued_word> all;
    for (graph::node_id u = 0; u < n; ++u)
      for (graph::node_id v = 0; v < n; ++v)
        if (v != u) all.push_back({u, v, all.size(), 1});
    const auto entry_of = [&all](graph::node_id from, graph::node_id to) {
      return std::find_if(all.begin(), all.end(), [&](const queued_word& e) {
        return e.from == from && e.to == to;
      });
    };

    const auto check = [&](const char* what, const std::vector<queued_word>& entries) {
      SCOPED_TRACE(what);
      expect_round_charged_per_entry(g, f, entries);
    };

    check("whole fan-outs, sender-major", all);

    std::vector<queued_word> interleaved;
    for (graph::node_id v = 0; v < n; ++v)
      for (const queued_word& e : all)
        if (e.to == v) interleaved.push_back(e);
    check("whole fan-outs, interleaved senders", interleaved);

    std::vector<queued_word> missing = all;
    missing.erase(missing.begin() + (entry_of(3, 6) - all.begin()));
    check("one fan-out missing a receiver", missing);

    std::vector<queued_word> repeated = all;
    repeated[static_cast<std::size_t>(entry_of(3, 6) - all.begin())].to = 7;
    check("one fan-out repeating a receiver in place of another", repeated);

    std::vector<queued_word> mixed = all;
    mixed[static_cast<std::size_t>(entry_of(5, 2) - all.begin())].bits = 3;
    check("mixed bits within one fan-out", mixed);

    std::vector<queued_word> per_sender = all;
    for (queued_word& e : per_sender) e.bits = 1 + static_cast<std::uint64_t>(e.from % 3);
    check("whole fan-outs of different bits", per_sender);

    std::vector<queued_word> king_and_partial;
    for (graph::node_id v = 0; v < n; ++v) {
      if (v != 4) king_and_partial.push_back(*entry_of(4, v));
      if (v != 0 && v != 8) king_and_partial.push_back(*entry_of(0, v));
    }
    check("one whole fan-out and one partial, interleaved", king_and_partial);
  }
}

}  // namespace
}  // namespace nab::bb
