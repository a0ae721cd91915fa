// The transport codec (sim/wire.hpp) and every layout built on it, pinned
// with golden words. The protocol-level cases tap real runs: in K_5 without
// the link 0-3, f = 1, nodes 0 and 3 talk over three emulated paths, one of
// them through the corrupt relay 1, whose relay hook records each copy it
// forwards (unmodified) — so these goldens are the batches production
// writes, not a re-encoding of them.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

#include "bb/claim_bcast.hpp"
#include "bb/eig.hpp"
#include "core/dispute.hpp"
#include "core/equality_check.hpp"
#include "core/phase1.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "sim/wire.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

using words = std::vector<std::uint64_t>;

graph::digraph k5_without_03() {
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  return g;
}

/// Records, per (from, to), every payload that crosses a corrupt relay, in
/// round order. Each tap watches one protocol call, so it sees only that
/// protocol's batches.
class wire_tap : public bb::relay_adversary {
 public:
  std::optional<sim::payload> tamper(const std::vector<graph::node_id>&,
                                     const sim::message& m) override {
    copies_.push_back({m.from, m.to, {m.payload.begin(), m.payload.end()}});
    return std::nullopt;
  }

  std::vector<words> between(graph::node_id from, graph::node_id to) const {
    std::vector<words> out;
    for (const copy& c : copies_)
      if (c.from == from && c.to == to) out.push_back(c.payload);
    return out;
  }

 private:
  struct copy {
    graph::node_id from;
    graph::node_id to;
    words payload;
  };
  std::vector<copy> copies_;
};

// ---------------------------------------------------------------------------
// Layouts on the wire.
// ---------------------------------------------------------------------------

TEST(Wire, EigItemsOnTheWire) {
  // Items [q, len, ids..., vlen, words...], concatenated per batch.
  const graph::digraph g = k5_without_03();
  sim::network net(g);
  sim::fault_set faults(5, {1});
  bb::channel_plan plan(g, 1);
  wire_tap tap;
  const std::vector<bb::eig_instance> instances{{0, {0xAB, 0xCD}, 32}, {2, {0x11}, 16}};
  bb::eig_broadcast_all(plan, net, faults, instances, 1, 64, nullptr, &tap);
  // Round 1: source 0's own item; round 2: 0 relays label (2).
  EXPECT_EQ(tap.between(0, 3),
            (std::vector<words>{{0, 1, 0, 2, 0xAB, 0xCD}, {1, 1, 2, 1, 0x11}}));
  // Round 2: 3 relays labels (0) and (2) in one batch.
  EXPECT_EQ(tap.between(3, 0),
            (std::vector<words>{{0, 1, 0, 2, 0xAB, 0xCD, 1, 1, 2, 1, 0x11}}));
}

/// Claimant 1 proposes a forged transcript to node 3 alone, under the
/// forged transcript's true digest, so node 3 must retrieve the real one.
class split_proposal : public bb::claim_adversary {
 public:
  bb::value propose_payload(graph::node_id, graph::node_id receiver,
                            const bb::value& honest) override {
    return receiver == 3 ? bb::value{0x99} : honest;
  }
};

TEST(Wire, CollapsedItemsOnTheWire) {
  const graph::digraph g = k5_without_03();
  sim::network net(g);
  sim::fault_set faults(5, {1});
  bb::channel_plan plan(g, 1);
  wire_tap tap;
  split_proposal adv;
  const std::vector<bb::claim_instance> instances{{0, {0xAB, 0xCD}, 32}, {1, {0x11}, 16}};
  bb::broadcast_claims_collapsed(plan, net, faults, instances, 1, &adv, &tap, 7);
  const std::uint64_t d0 = bb::claim_digest_of({0xAB, 0xCD}, 7).packed();
  const std::uint64_t d1 = bb::claim_digest_of({0x11}, 7).packed();
  const std::uint64_t forged = bb::claim_digest_of({0x99}, 7).packed();
  // Propose [q, digest, len, words...], echo and ready [q, digest] per
  // instance, then the retrieval response [q, len, words...].
  EXPECT_EQ(tap.between(0, 3), (std::vector<words>{{0, d0, 2, 0xAB, 0xCD},
                                                   {0, d0, 1, d1},
                                                   {0, d0, 1, d1},
                                                   {1, 1, 0x11}}));
  // Node 3 echoes the forged copy it holds, readies the quorum's digest and
  // requests instance 1: [q].
  EXPECT_EQ(tap.between(3, 0),
            (std::vector<words>{{0, d0, 1, forged}, {0, d0, 1, d1}, {1}}));
}

/// Taps dispute control's channels. Node 1 is a corrupt relay; with
/// `empty_input` the (then corrupt) source submits an empty DC1 input.
class dc1_tap : public nab_adversary {
 public:
  explicit dc1_tap(bool empty_input) : empty_input_(empty_input) {}
  std::vector<word> phase3_source_input(const std::vector<word>& honest) override {
    return empty_input_ ? std::vector<word>{} : honest;
  }
  bb::relay_adversary* relay() override { return &tap; }
  wire_tap tap;

 private:
  bool empty_input_;
};

struct dc1_capture {
  words first_batch;    ///< DC1's first EIG round, source 0 -> node 3
  sim::payload claims;  ///< node 0's packed claims
};

dc1_capture capture_dc1(const std::vector<word>& input, bool empty_input) {
  const graph::digraph g = k5_without_03();
  sim::network net(g);
  const sim::fault_set faults(5, empty_input ? std::vector<graph::node_id>{0, 1}
                                             : std::vector<graph::node_id>{1});
  const auto trees = graph::pack_arborescences(
      g, 0, static_cast<int>(graph::broadcast_mincut(g, 0)));
  const int rho = static_cast<int>(compute_rho(compute_uk(g, 1, dispute_record{})));
  const coding_scheme coding = coding_scheme::generate(g, rho, 23);
  const phase1_result p1 = run_phase1(net, g, faults, 0, input, trees);
  std::vector<value_vector> values(5);
  for (graph::node_id v : g.active_nodes())
    values[static_cast<std::size_t>(v)] =
        value_vector::reshape(p1.received[static_cast<std::size_t>(v)], rho);
  const equality_check_result ec = run_equality_check(net, g, faults, coding, values);

  instance_context ctx;
  ctx.source = 0;
  ctx.input = input;
  ctx.rho = rho;
  ctx.trees = trees;
  ctx.coding = &coding;
  ctx.agreed_flags.assign(5, false);
  for (graph::node_id v : g.active_nodes()) {
    node_claims merged = p1.truth[static_cast<std::size_t>(v)];
    merged.p2_sent = ec.truth[static_cast<std::size_t>(v)].p2_sent;
    merged.p2_received = ec.truth[static_cast<std::size_t>(v)].p2_received;
    ctx.truth.push_back(std::move(merged));
  }
  dispute_record record;
  dc1_tap adv(empty_input);
  bb::channel_plan channels(g, 1);
  run_dispute_control(net, channels, g, faults, 1, 1, ctx, record, &adv,
                      bb::claim_backend::eig);
  const std::vector<words> batches = adv.tap.between(0, 3);
  return {batches.empty() ? words{} : batches.front(), ctx.truth[0].pack()};
}

TEST(Wire, Dc1SourceInputOnTheWire) {
  // Source 0's first DC1 batch holds its claims (instance 0) and its input
  // (instance 5, after the five claimants): 16-bit words packed low word
  // first, no length of their own; an empty input ships one zero word.
  for (const bool empty : {false, true}) {
    const dc1_capture got = capture_dc1({1, 2, 3, 4, 5}, empty);
    words expected{0, 1, 0, got.claims.size()};
    expected.insert(expected.end(), got.claims.begin(), got.claims.end());
    const words input_item = empty ? words{5, 1, 0, 1, 0}
                                   : words{5, 1, 0, 2, 0x0004000300020001ull, 0x5};
    expected.insert(expected.end(), input_item.begin(), input_item.end());
    EXPECT_EQ(got.first_batch, expected) << (empty ? "empty input" : "five words");
  }
}

node_claims golden_claims() {
  node_claims c;
  c.p1_sent[{0, 0, 1}] = chunk{1, 2, 3, 4, 5};
  c.p1_received[{1, -1, 0}] = chunk{0xFFFF};
  coded_symbols y;
  y.count = 1;
  y.slices = 2;
  y.words = {7, 8};
  c.p2_sent[{0, 1}] = y;
  return c;
}

const sim::payload golden_claims_words{
    1, 0, 0, 1, 5, 0x0004000300020001ull, 0x5,  // p1_sent: tree, from, to, run16
    1, 1, ~0ull, 0, 1, 0xFFFF,                  // p1_received (node id -1)
    1, 0, 1, 1, 2, 2, 0x0000000000080007ull,    // p2_sent: from, to, count, slices, run16
    0};                                         // p2_received

TEST(Wire, NodeClaimsGoldenLayout) {
  EXPECT_EQ(golden_claims().pack(), golden_claims_words);
  node_claims back;
  ASSERT_TRUE(node_claims::unpack(golden_claims_words, back));
  EXPECT_EQ(back, golden_claims());
}

TEST(Wire, NodeClaimsRoundTripPhaseTranscripts) {
  const graph::digraph g = graph::paper_fig2();
  const auto trees = graph::pack_arborescences(g, 0, 2);
  sim::network net(g);
  sim::fault_set faults(4);
  rng rand(8);
  std::vector<word> input(6);
  for (word& w : input) w = static_cast<word>(rand.below(65536));
  const auto r = run_phase1(net, g, faults, 0, input, trees);
  for (graph::node_id v = 0; v < 4; ++v) {
    const node_claims& c = r.truth[static_cast<std::size_t>(v)];
    node_claims back;
    ASSERT_TRUE(node_claims::unpack(c.pack(), back));
    EXPECT_EQ(back, c);
  }
}

TEST(Wire, NodeClaimsRejectsMalformedBlobs) {
  node_claims out;
  EXPECT_TRUE(node_claims::unpack(node_claims{}.pack(), out));  // empty is valid
  EXPECT_FALSE(node_claims::unpack({999999999}, out));           // absurd count
  EXPECT_FALSE(node_claims::unpack({(1u << 20) + 1}, out));      // one entry too many
  EXPECT_FALSE(node_claims::unpack({1, 0, 1}, out));             // truncated entry
  // A chunk longer than 2^24 words, with its words present.
  sim::payload huge{1, 0, 0, 1, (1u << 24) + 1};
  huge.resize(huge.size() + (1u << 22) + 1, 0);
  huge.insert(huge.end(), {0, 0, 0});
  EXPECT_FALSE(node_claims::unpack(huge, out));
  // Coded words that disagree with count * slices.
  EXPECT_FALSE(node_claims::unpack({0, 0, 1, 0, 1, 1, 2, 1, 7, 0}, out));
  sim::payload trailing = golden_claims_words;
  trailing.push_back(0);
  EXPECT_FALSE(node_claims::unpack(trailing, out));
  // A failed parse keeps the sections read before the fault: dispute
  // control convicts the claimant and still cross-checks what was read.
  sim::payload cut(golden_claims_words.begin(), golden_claims_words.begin() + 10);
  EXPECT_FALSE(node_claims::unpack(cut, out));
  EXPECT_EQ(out.p1_sent, golden_claims().p1_sent);
  EXPECT_TRUE(out.p1_received.empty());
}

// ---------------------------------------------------------------------------
// The codec itself.
// ---------------------------------------------------------------------------

TEST(Wire, Words16PackLowWordFirst) {
  sim::payload out{42};
  sim::wire::put16(out, std::vector<word>{1, 2, 3, 4, 5});
  EXPECT_EQ(out, (sim::payload{42, 0x0004000300020001ull, 0x5}));
  sim::wire::put16(out, std::vector<word>{});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(sim::wire::words16(0), 0u);
  EXPECT_EQ(sim::wire::words16(4), 1u);
  EXPECT_EQ(sim::wire::words16(5), 2u);
  // One word's lanes: the i-th 16-bit word sits in lane i % 4.
  EXPECT_EQ(sim::wire::to_lane(0xBEEF, 3), 0xBEEF000000000000ull);
  EXPECT_EQ(sim::wire::to_lane(0xBEEF, 5), 0xBEEF0000ull);
  EXPECT_EQ(sim::wire::lane(0x0004000300020001ull, 2), 3);
  EXPECT_EQ(sim::wire::lane(0x0004000300020001ull, 7), 4);
}

TEST(Wire, ClaimDigestIsOnePackedTransportWord) {
  // A digest's wire form is its four words packed exactly as put16 packs a
  // 16-bit run, and from_packed reads them back as get16 does.
  const bb::claim_digest d = bb::claim_digest_of({0xAB, 0xCD}, 7);
  sim::payload run;
  sim::wire::put16(run, d.words);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(d.packed(), run[0]);
  std::array<std::uint16_t, 4> back{};
  sim::wire::get16(run, 0, back);
  EXPECT_EQ(bb::claim_digest::from_packed(run[0]).words, back);
  EXPECT_EQ(bb::claim_digest::from_packed(run[0]), d);
  EXPECT_EQ((bb::claim_digest{{1, 2, 3, 4}}).packed(), 0x0004000300020001ull);
}

TEST(Wire, Get16ZeroFillsPastTheEnd) {
  std::vector<word> got(6, 9);
  sim::wire::get16({0x0004000300020001ull}, 0, got);
  EXPECT_EQ(got, (std::vector<word>{1, 2, 3, 4, 0, 0}));
  std::vector<word> from_empty(3, 9);
  sim::wire::get16({}, 0, from_empty);
  EXPECT_EQ(from_empty, (std::vector<word>{0, 0, 0}));
}

TEST(Wire, Words16RoundTrip) {
  rng rand(5);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<word> ws(rand.below(30));
    for (word& w : ws) w = static_cast<word>(rand.below(65536));
    sim::payload packed;
    sim::wire::put16(packed, ws);
    ASSERT_EQ(packed.size(), sim::wire::words16(ws.size()));
    std::vector<word> back(ws.size());
    sim::wire::get16(packed, 0, back);
    EXPECT_EQ(back, ws);
  }
  // Arena-backed coded words take the same path.
  coded_symbols c;
  c.count = 3;
  c.slices = 5;
  for (int i = 0; i < 15; ++i) c.words.push_back(static_cast<word>(rand.below(65536)));
  sim::payload packed;
  sim::wire::put_run16(packed, c.words);
  coded_symbols back = c;
  back.words.clear();
  sim::wire::reader in(packed);
  ASSERT_TRUE(in.get_run16(back.words, 15));
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back, c);
}

TEST(Wire, RunsAreLengthPrefixed) {
  sim::payload out;
  sim::wire::put(out, 7u, -1);
  sim::wire::put_run(out, std::vector<graph::node_id>{2, 4});
  sim::wire::put_run16(out, std::vector<word>{0xA, 0xB});
  EXPECT_EQ(out, (sim::payload{7, ~0ull, 2, 2, 4, 2, 0x000B000A}));
  sim::wire::reader in(out);
  std::size_t q = 0;
  graph::node_id id = 0;
  std::vector<graph::node_id> ids;
  std::vector<word> ws;
  ASSERT_TRUE(in.get(q, id));
  EXPECT_EQ(q, 7u);
  EXPECT_EQ(id, -1);
  ASSERT_TRUE(in.get_run(ids) && in.get_run16(ws, 2));
  EXPECT_EQ(ids, (std::vector<graph::node_id>{2, 4}));
  EXPECT_EQ(ws, (std::vector<word>{0xA, 0xB}));
  EXPECT_TRUE(in.at_end());
  EXPECT_FALSE(in.get(q));
}

TEST(Wire, TruncatedBatchYieldsItsWellFormedPrefix) {
  // Three [q, run] items; every cut of the batch parses exactly the items
  // that fit whole, and the cursor ends parked at the payload's end.
  sim::payload batch;
  std::vector<std::size_t> ends;
  for (std::uint64_t q = 0; q < 3; ++q) {
    sim::wire::put(batch, q);
    sim::wire::put_run(batch, sim::payload(q + 1, 0xF0 + q));
    ends.push_back(batch.size());
  }
  for (std::size_t cut = 0; cut <= batch.size(); ++cut) {
    const sim::payload prefix(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(cut));
    sim::wire::reader in(prefix);
    std::size_t q = 0, items = 0;
    sim::payload v;
    while (in.get(q) && in.get_run(v)) {
      EXPECT_EQ(q, items);
      EXPECT_EQ(v, sim::payload(q + 1, 0xF0 + q));
      ++items;
    }
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    EXPECT_EQ(items, whole) << "cut " << cut;
    EXPECT_TRUE(in.at_end()) << "cut " << cut;
  }
}

TEST(Wire, OverlongLengthFailsAndParks) {
  const sim::payload batch{0, 5, 1, 2, 3};  // claims five words, carries three
  sim::wire::reader in(batch);
  std::size_t q = 0;
  sim::payload v;
  EXPECT_TRUE(in.get(q));
  EXPECT_FALSE(in.get_run(v));
  EXPECT_TRUE(in.at_end());
  // A 16-bit run fails on its length bound before reading its words.
  const sim::payload run16{3, 0x0003000200010000ull};
  sim::wire::reader bounded(run16);
  std::vector<word> ws;
  EXPECT_FALSE(bounded.get_run16(ws, 2));
  EXPECT_TRUE(bounded.at_end());
  sim::wire::reader unbounded(run16);
  EXPECT_TRUE(unbounded.get_run16(ws, 3));
  EXPECT_EQ(ws, (std::vector<word>{0, 1, 2}));
}

}  // namespace
}  // namespace nab::core
