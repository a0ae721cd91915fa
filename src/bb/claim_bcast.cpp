#include "bb/claim_bcast.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "bb/round_batch.hpp"
#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"
#include "sim/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

// ---------------------------------------------------------------------------
// Digest: polynomial evaluation over GF(2^16) at four seeded points.
// ---------------------------------------------------------------------------

/// Per-point multiplication tables: digesting is one table hit + one xor per
/// limb per point. The collapsed backend digests each distinct transcript of
/// a round once, not once per (claimant, receiver) pair: a received copy
/// equal to its claimant's input shares the input's digest. ~512 KiB per
/// point set.
struct digest_tables {
  std::array<std::uint16_t, 4> points;
  std::array<std::array<std::uint16_t, 65536>, 4> mul;

  explicit digest_tables(std::uint64_t seed) {
    // Four distinct nonzero evaluation points drawn from the seed (the
    // session feeds its per-run coding_seed): collision-finding against
    // them is the same seeded-randomness bet as against the Theorem-1
    // coding matrices, instead of closed-form linear algebra over points an
    // adversary could read off the source.
    rng rand(seed ^ 0xd16e57ULL);
    for (std::size_t k = 0; k < points.size(); ++k) {
      for (;;) {
        const auto candidate =
            static_cast<std::uint16_t>(rand.below(65535) + 1);  // nonzero
        bool fresh = true;
        for (std::size_t j = 0; j < k; ++j) fresh = fresh && points[j] != candidate;
        if (fresh) {
          points[k] = candidate;
          break;
        }
      }
      for (unsigned a = 0; a < 65536; ++a)
        mul[k][a] = gf::gf2_16::mul(static_cast<std::uint16_t>(a), points[k]);
    }
  }
};

/// One-entry thread-local cache: a session digests under a single seed for
/// its whole lifetime, so the tables are rebuilt only when a shard moves to
/// the next run (4 * 65536 field mults, ~1 ms) — and never shared across
/// threads.
const digest_tables& digests_for(std::uint64_t seed) {
  thread_local std::unique_ptr<digest_tables> cached;
  thread_local std::uint64_t cached_seed = 0;
  if (cached == nullptr || cached_seed != seed) {
    cached = std::make_unique<digest_tables>(seed);
    cached_seed = seed;
  }
  return *cached;
}

}  // namespace

claim_digest claim_digest_of(const value& payload, std::uint64_t seed) {
  const digest_tables& t = digests_for(seed);
  // 4 limbs x 4 points per absorbed word (plus the length word), counted in
  // bulk so the ambient check stays out of the Horner loop.
  obs::count(obs::counter::gf_mul_ops, 16 * (payload.size() + 1));
  // Horner per point over the limb stream [len limbs..., payload limbs...];
  // accumulators start at 1 so leading zero limbs still shift the state.
  std::array<std::uint16_t, 4> acc = {1, 1, 1, 1};
  const auto absorb = [&](std::uint64_t word) {
    for (std::size_t limb = 0; limb < sim::wire::lanes; ++limb) {
      const std::uint16_t w = sim::wire::lane(word, limb);
      for (std::size_t k = 0; k < 4; ++k)
        acc[k] = static_cast<std::uint16_t>(t.mul[k][acc[k]] ^ w);
    }
  };
  absorb(static_cast<std::uint64_t>(payload.size()));
  for (std::uint64_t word : payload) absorb(word);
  claim_digest d;
  d.words = acc;
  return d;
}

std::vector<claim_digest> claim_digests_of(const std::vector<const value*>& payloads,
                                           std::uint64_t seed) {
  std::vector<claim_digest> out(payloads.size());
  // Same-length payloads advance in lockstep: per absorbed limb, each point's
  // accumulator row is one gf2_16::scale pass (multiply the whole row by the
  // evaluation point) followed by a limb xor. A group of one keeps the
  // scalar table walk — the row pass only pays off with real width.
  std::vector<std::size_t> order(payloads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return payloads[a]->size() < payloads[b]->size();
  });
  const digest_tables& t = digests_for(seed);
  std::array<std::vector<std::uint16_t>, 4> acc;
  std::vector<std::uint16_t> limbs;
  std::size_t lo = 0;
  while (lo < order.size()) {
    const std::size_t m = payloads[order[lo]]->size();
    std::size_t hi = lo + 1;
    while (hi < order.size() && payloads[order[hi]]->size() == m) ++hi;
    const std::size_t rows = hi - lo;
    if (rows == 1) {
      out[order[lo]] = claim_digest_of(*payloads[order[lo]], seed);
      lo = hi;
      continue;
    }
    for (auto& row : acc) row.assign(rows, 1);
    limbs.resize(rows);
    for (std::size_t j = 0; j <= m; ++j) {
      for (std::size_t limb = 0; limb < sim::wire::lanes; ++limb) {
        for (std::size_t i = 0; i < rows; ++i) {
          const value& p = *payloads[order[lo + i]];
          const std::uint64_t word =
              j == 0 ? static_cast<std::uint64_t>(m) : p[j - 1];
          limbs[i] = sim::wire::lane(word, limb);
        }
        for (std::size_t k = 0; k < 4; ++k) {
          gf::gf2_16::scale(acc[k].data(), t.points[k], rows);
          for (std::size_t i = 0; i < rows; ++i)
            acc[k][i] = static_cast<std::uint16_t>(acc[k][i] ^ limbs[i]);
        }
      }
    }
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t k = 0; k < 4; ++k) out[order[lo + i]].words[k] = acc[k][i];
    lo = hi;
  }
  return out;
}

claim_backend resolve_claim_backend(claim_backend requested,
                                    std::size_t participants, int f) {
  if (requested != claim_backend::auto_select) return requested;
  // EIG forwards every label of every round: sum_{r<=f} n^r labels per
  // instance, each relayed to n receivers, each carrying the full L-bit
  // transcript. Past ~2k forwarded labels per instance that term dominates
  // DC1, so auto hands claims to the collapsed backend (correct for any
  // n > 3f). Registry-size inputs (n <= 64, f <= 9) cannot overflow.
  std::uint64_t labels = 1, level = 1;
  for (int r = 0; r < f; ++r) {
    level *= participants;
    labels += level;
  }
  return labels * participants > 2048 ? claim_backend::collapsed
                                      : claim_backend::eig;
}

// ---------------------------------------------------------------------------
// EIG oracle backend.
// ---------------------------------------------------------------------------

claim_outcome broadcast_claims_eig(channel_plan& channels, sim::network& net,
                                   const sim::fault_set& faults,
                                   const std::vector<claim_instance>& instances,
                                   int f, eig_adversary* adv,
                                   relay_adversary* relay_adv) {
  std::vector<eig_instance> eigs;
  eigs.reserve(instances.size());
  for (const claim_instance& inst : instances) {
    NAB_ASSERT(inst.value_bits > 0, "claim instance needs a wire size");
    eigs.push_back({inst.source, inst.input, inst.value_bits});
  }
  eig_result eig = eig_broadcast_all(channels, net, faults, eigs, f,
                                     /*value_bits=*/64, adv, relay_adv);
  claim_outcome out;
  out.agreed = std::move(eig.decisions);
  out.time = eig.time;
  return out;
}

// ---------------------------------------------------------------------------
// Collapsed-claim Bracha-style backend. Its items (propose, echo, ready,
// retrieval request and response) are laid out in sim/wire.hpp's codec.
// ---------------------------------------------------------------------------

namespace {

/// Per-(node, instance) protocol state of the collapsed backend; its echo
/// and ready votes live in the round's vote_tally pair.
struct collapsed_slot {
  value direct;                      ///< transcript copy from the claimant
  bool has_direct = false;
  std::uint64_t direct_digest = 0;   ///< digest of `direct` (valid iff has_direct)
  std::optional<std::uint64_t> announced;  ///< digest the claimant announced
  std::optional<std::uint64_t> ready_sent;
  std::optional<std::uint64_t> pending_ready;
  std::optional<std::uint64_t> accepted;
  bool need_fallback = false;
  bool resolved_by_fallback = false;

  /// True iff the direct copy matches digest d (the "holder" predicate).
  bool holds(std::uint64_t d) const { return has_direct && direct_digest == d; }
};

/// One vote kind's tallies (echo or ready) over every (node, instance) slot:
/// per slot, the distinct digests it heard, each with a dense sender bitset
/// and its vote count. The echo senders of a digest are also the requester's
/// address book for the retrieval round, because honest nodes echo only
/// while holding a matching transcript. An honest slot hears one digest, so
/// a vote is a one-entry chain walk and a bit set. Chains and bitsets live
/// in two flat pools: no tally costs a heap allocation of its own.
class vote_tally {
 public:
  vote_tally(std::size_t slots, int universe)
      : words_((static_cast<std::size_t>(universe) + 63) / 64), head_(slots, none) {
    entries_.reserve(slots);
    senders_.reserve(slots * words_);
  }

  /// Counts `sender`'s vote for `digest` in `slot`; a repeated vote is a no-op.
  void add(std::size_t slot, std::uint64_t digest, graph::node_id sender) {
    std::uint32_t e = find(slot, digest);
    if (e == none) {
      e = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back({digest, 0, head_[slot]});
      head_[slot] = e;
      senders_.resize(senders_.size() + words_, 0);
    }
    const auto s = static_cast<std::size_t>(sender);
    std::uint64_t& word = senders_[e * words_ + s / 64];
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    ++entries_[e].votes;
  }

  /// The smallest digest in `slot` with at least `quorum` votes, and its votes.
  std::optional<std::pair<std::uint64_t, int>> smallest_with(std::size_t slot,
                                                             int quorum) const {
    std::optional<std::pair<std::uint64_t, int>> best;
    for (std::uint32_t e = head_[slot]; e != none; e = entries_[e].next)
      if (entries_[e].votes >= quorum && (!best || entries_[e].digest < best->first))
        best.emplace(entries_[e].digest, entries_[e].votes);
    return best;
  }

  /// Calls fn(sender) for each sender of `digest` in `slot`, in ascending id,
  /// until fn returns false.
  template <class Fn>
  void for_each_sender(std::size_t slot, std::uint64_t digest, Fn fn) const {
    const std::uint32_t e = find(slot, digest);
    if (e == none) return;
    for (std::size_t w = 0; w < words_; ++w)
      for (std::uint64_t bits = senders_[e * words_ + w]; bits != 0; bits &= bits - 1)
        if (!fn(static_cast<graph::node_id>(64 * w + std::countr_zero(bits)))) return;
  }

 private:
  static constexpr std::uint32_t none = ~std::uint32_t{0};
  struct entry {
    std::uint64_t digest;
    int votes;
    std::uint32_t next;  ///< next digest of the same slot, or none
  };

  std::uint32_t find(std::size_t slot, std::uint64_t digest) const {
    for (std::uint32_t e = head_[slot]; e != none; e = entries_[e].next)
      if (entries_[e].digest == digest) return e;
    return none;
  }

  std::size_t words_;                 ///< bitset words per digest
  std::vector<std::uint32_t> head_;   ///< per slot: its latest digest, or none
  std::vector<entry> entries_;
  std::vector<std::uint64_t> senders_;  ///< words_ per entry
};

/// Charges the GF work of digesting one batch of payloads with these
/// lengths, as claim_digests_of would: 16·(len+1) per payload (4 limbs x 4
/// points per absorbed word, the length word included), to gf_mul_ops for a
/// length no other payload of the batch has (its scalar table walk) and to
/// gf_scale_words for a same-length group (its row passes). Sorts `lengths`.
void charge_digests(std::vector<std::size_t>& lengths) {
  std::sort(lengths.begin(), lengths.end());
  std::uint64_t lone = 0, grouped = 0;
  for (std::size_t lo = 0, hi = 0; lo < lengths.size(); lo = hi) {
    for (hi = lo + 1; hi < lengths.size() && lengths[hi] == lengths[lo];) ++hi;
    (hi - lo == 1 ? lone : grouped) += 16 * (lengths[lo] + 1) * (hi - lo);
  }
  obs::count(obs::counter::gf_mul_ops, lone);
  obs::count(obs::counter::gf_scale_words, grouped);
}

/// Digests one batch of received transcript copies, where copies[i] claims
/// to be instance qs[i]'s transcript. Every receiver digests its own copy
/// in the protocol, and the counters charge exactly that, for the whole
/// batch; the simulation computes each distinct transcript once. A copy
/// whose length and words equal its claimant's input takes the input's
/// digest: one whole-transcript compare per copy and never one between
/// copies, so a forging claimant cannot make it quadratic. Only the rest
/// (forged proposals, retrieval responses that are not the claimant's input)
/// go through claim_digests_of.
std::vector<std::uint64_t> digest_copies(const std::vector<const value*>& copies,
                                         const std::vector<std::size_t>& qs,
                                         const std::vector<claim_instance>& instances,
                                         const std::vector<std::uint64_t>& input_digests,
                                         std::uint64_t seed) {
  std::vector<std::uint64_t> out(copies.size());
  std::vector<std::size_t> lengths;
  std::vector<const value*> differing;
  std::vector<std::size_t> differing_at;
  lengths.reserve(copies.size());
  for (std::size_t i = 0; i < copies.size(); ++i) {
    lengths.push_back(copies[i]->size());
    if (*copies[i] == instances[qs[i]].input) {
      out[i] = input_digests[qs[i]];
    } else {
      differing.push_back(copies[i]);
      differing_at.push_back(i);
    }
  }
  charge_digests(lengths);
  if (differing.empty()) return out;
  std::vector<claim_digest> fresh;
  {
    obs::scoped_collector charged_above(nullptr);
    fresh = claim_digests_of(differing, seed);
  }
  for (std::size_t k = 0; k < fresh.size(); ++k)
    out[differing_at[k]] = fresh[k].packed();
  return out;
}

}  // namespace

claim_outcome broadcast_claims_collapsed(
    channel_plan& channels, sim::network& net, const sim::fault_set& faults,
    const std::vector<claim_instance>& instances, int f, claim_adversary* adv,
    relay_adversary* relay_adv, std::uint64_t digest_seed) {
  const std::vector<graph::node_id> participants =
      channels.topology().active_nodes();
  const auto np = static_cast<int>(participants.size());
  NAB_ASSERT(np > 3 * f, "collapsed claim broadcast requires more than 3f participants");
  const int universe = channels.topology().universe();
  const std::size_t q_count = instances.size();

  claim_outcome out;
  out.agreed.assign(q_count,
                    std::vector<value>(static_cast<std::size_t>(universe)));
  if (q_count == 0) return out;

  // Quorums: an echo quorum > (np + f)/2 admits at most one digest per
  // claimant; accepting needs 2f+1 readys (>= f+1 honest), and f+1 readys
  // amplify — the standard Bracha arithmetic, run to quiescence below.
  const int echo_quorum = (np + f) / 2 + 1;
  const int ready_accept = 2 * f + 1;
  const int ready_amplify = f + 1;

  const double t0 = net.elapsed();
  round_batches batches(universe, participants);
  const std::size_t slots = static_cast<std::size_t>(universe) * q_count;
  std::vector<collapsed_slot> st(slots);
  const auto at = [&](graph::node_id v, std::size_t q) {
    return static_cast<std::size_t>(v) * q_count + q;
  };
  const auto slot = [&](graph::node_id v, std::size_t q) -> collapsed_slot& {
    return st[at(v, q)];
  };
  vote_tally echoes(slots, universe);
  vote_tally readys(slots, universe);

  // ---- Round 1 (PROPOSE): digest + the single direct transcript copy. ----
  obs::scoped_span propose_span("claim_propose", net.elapsed());
  std::vector<std::uint64_t> input_digests(q_count);
  for (std::size_t q = 0; q < q_count; ++q) {
    const claim_instance& inst = instances[q];
    NAB_ASSERT(channels.topology().is_active(inst.source),
               "claimant must participate");
    NAB_ASSERT(inst.value_bits > 0, "claim instance needs a wire size");
    const claim_digest honest_digest = claim_digest_of(inst.input, digest_seed);
    input_digests[q] = honest_digest.packed();
    {
      collapsed_slot& self = slot(inst.source, q);
      self.direct = inst.input;
      self.has_direct = true;
      self.direct_digest = honest_digest.packed();
      self.announced = honest_digest.packed();
    }
    const bool may_lie = faults.is_corrupt(inst.source) && adv != nullptr;
    for (graph::node_id r : participants) {
      if (r == inst.source) continue;
      const value* pl = &inst.input;
      std::uint64_t dg = honest_digest.packed();
      value forged;
      if (may_lie) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        forged = adv->propose_payload(inst.source, r, inst.input);
        dg = adv->announce_digest(inst.source, r,
                                  claim_digest_of(forged, digest_seed))
                 .packed();
        pl = &forged;
      }
      round_batch& b = batches.at(inst.source, r);
      sim::wire::put(b.payload, q, dg);
      sim::wire::put_run(b.payload, *pl);
      b.bits += inst.value_bits + claim_digest_bits + 16;
    }
  }
  batches.flush(channels);
  channels.end_round(net, faults, relay_adv);
  {
    // Absorb every accepted proposal first, then digest the whole round as
    // one batch (one digest per distinct transcript, charged per copy).
    std::vector<collapsed_slot*> filled;
    std::vector<const value*> transcripts;
    std::vector<std::size_t> qs;
    for (graph::node_id r : participants) {
      for (const sim::message& m : channels.inbox(r)) {
        std::size_t q = 0;
        std::uint64_t dg = 0;
        value v;
        sim::wire::reader in(m.payload);
        while (in.get(q, dg) && in.get_run(v)) {
          if (q >= q_count || m.from != instances[q].source) continue;
          collapsed_slot& s = slot(r, q);
          if (s.announced) continue;  // first proposal wins
          s.announced = dg;
          s.direct = std::move(v);
          s.has_direct = true;
          filled.push_back(&s);
          transcripts.push_back(&s.direct);
          qs.push_back(q);
        }
      }
    }
    const std::vector<std::uint64_t> digests =
        digest_copies(transcripts, qs, instances, input_digests, digest_seed);
    for (std::size_t i = 0; i < filled.size(); ++i)
      filled[i]->direct_digest = digests[i];
  }
  propose_span.close(net.elapsed());

  // ---- Round 2 (ECHO): a node echoes a digest only while holding a ----
  // ---- matching transcript, so any echo quorum guarantees >= f+1    ----
  // ---- honest holders — what makes the retrieval round total.       ----
  obs::scoped_span echo_span("claim_echo", net.elapsed());
  for (graph::node_id i : participants) {
    const bool may_lie = faults.is_corrupt(i) && adv != nullptr;
    for (graph::node_id j : participants) {
      if (j == i) continue;
      round_batch& b = batches.at(i, j);
      for (std::size_t q = 0; q < q_count; ++q) {
        const collapsed_slot& s = slot(i, q);
        std::optional<claim_digest> echo;
        if (s.announced && s.holds(*s.announced))
          echo = claim_digest::from_packed(*s.announced);
        if (may_lie) {
          sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
          echo = adv->echo_digest(i, j, q, echo);
        }
        if (!echo) continue;
        obs::count(obs::counter::claim_echoes);
        sim::wire::put(b.payload, q, echo->packed());
        b.bits += claim_digest_bits + 16;
      }
    }
  }
  batches.flush(channels);
  channels.end_round(net, faults, relay_adv);
  for (graph::node_id j : participants) {
    // A node's own echo counts toward its quorum (no wire cost).
    for (std::size_t q = 0; q < q_count; ++q) {
      const collapsed_slot& s = slot(j, q);
      if (s.announced && s.holds(*s.announced)) echoes.add(at(j, q), *s.announced, j);
    }
    for (const sim::message& m : channels.inbox(j)) {
      std::size_t q = 0;
      std::uint64_t dg = 0;
      sim::wire::reader in(m.payload);
      while (in.get(q, dg)) {
        if (q >= q_count) continue;
        echoes.add(at(j, q), dg, m.from);
      }
    }
  }
  echo_span.close(net.elapsed());

  obs::scoped_span ready_span("claim_ready", net.elapsed());
  // Initial readys: digest with an echo quorum (unique per claimant).
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q)
      if (const auto quorum = echoes.smallest_with(at(v, q), echo_quorum))
        slot(v, q).pending_ready = quorum->first;

  // ---- READY rounds to quiescence: each round flushes the pending      ----
  // ---- readys, then f+1 observed readys amplify into new pending ones. ----
  // ---- At quiescence acceptance is uniform across honest nodes: any    ----
  // ---- accept implies f+1 honest readys, which every honest node saw   ----
  // ---- and amplified, so all honest readied and all see >= np - f.     ----
  for (int round = 0;; ++round) {
    NAB_ASSERT(round <= np + 2, "collapsed ready loop failed to quiesce");
    bool any_pending = false;
    for (graph::node_id v : participants) {
      const bool may_lie = faults.is_corrupt(v) && adv != nullptr;
      for (std::size_t q = 0; q < q_count; ++q) {
        collapsed_slot& s = slot(v, q);
        if (!s.pending_ready) continue;
        any_pending = true;
        const std::uint64_t dg = *s.pending_ready;
        s.ready_sent = dg;
        s.pending_ready.reset();
        readys.add(at(v, q), dg, v);  // own ready counts
        for (graph::node_id j : participants) {
          if (j == v) continue;
          if (may_lie) {
            bool suppress;
            {
              sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
              suppress = adv->suppress_ready(v, j, q);
            }
            if (suppress) continue;
          }
          obs::count(obs::counter::claim_readys);
          round_batch& b = batches.at(v, j);
          sim::wire::put(b.payload, q, dg);
          b.bits += claim_digest_bits + 16;
        }
      }
    }
    if (!any_pending) break;
    batches.flush(channels);
    channels.end_round(net, faults, relay_adv);
    for (graph::node_id j : participants) {
      for (const sim::message& m : channels.inbox(j)) {
        std::size_t q = 0;
        std::uint64_t dg = 0;
        sim::wire::reader in(m.payload);
        while (in.get(q, dg)) {
          if (q >= q_count) continue;
          readys.add(at(j, q), dg, m.from);
        }
      }
      // Amplification: f+1 readys for a digest pull a not-yet-ready node in.
      for (std::size_t q = 0; q < q_count; ++q) {
        collapsed_slot& s = slot(j, q);
        if (s.ready_sent || s.pending_ready) continue;
        if (const auto amplified = readys.smallest_with(at(j, q), ready_amplify))
          s.pending_ready = amplified->first;
      }
    }
  }

  // Acceptance + fallback need (a direct copy mismatching the accepted
  // digest — the disputed minority).
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      collapsed_slot& s = slot(v, q);
      if (const auto accept = readys.smallest_with(at(v, q), ready_accept)) {
        const auto [dg, votes] = *accept;
        s.accepted = dg;
        // Margin gauges, honest observers only: how far this accept sat
        // above the quorum rules. Record-minimum over the whole run — the
        // closest the adversary pushed a quorum to its edge.
        if (faults.is_honest(v)) {
          obs::gauge_min(obs::gauge::quorum_slack, votes - ready_accept);
          std::int64_t honest_holders = 0;
          echoes.for_each_sender(at(v, q), dg, [&](graph::node_id h) {
            if (faults.is_honest(h)) ++honest_holders;
            return true;
          });
          obs::gauge_min(obs::gauge::hold_surplus, honest_holders - (f + 1));
        }
      }
      s.need_fallback = s.accepted && !s.holds(*s.accepted);
      if (s.need_fallback) obs::count(obs::counter::claim_fallbacks);
    }
  ready_span.close(net.elapsed());

  // ---- Retrieval round pair (REQUEST, RESPOND) — zero traffic and zero ----
  // ---- simulated time when every pair was digest-clean. Requests go to ----
  // ---- at most 2f+1 of the accepted digest's echoers: honest nodes     ----
  // ---- echo only while holding, the requester saw every honest echo    ----
  // ---- (honest echoes broadcast), and any accepted digest has >= f+1   ----
  // ---- honest echoers — so even f corrupt echoers among the targets    ----
  // ---- leave an honest holder that serves the transcript. Per          ----
  // ---- mismatched pair the fallback therefore moves O(f) copies, not   ----
  // ---- O(n).                                                           ----
  obs::scoped_span retrieval_span("claim_retrieval", net.elapsed());
  std::vector<std::vector<std::pair<std::size_t, graph::node_id>>> requests(
      static_cast<std::size_t>(universe));
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      const collapsed_slot& s = slot(v, q);
      if (!s.need_fallback) continue;
      int asked = 0;
      echoes.for_each_sender(at(v, q), *s.accepted, [&](graph::node_id j) {
        if (j == v) return true;
        if (asked >= 2 * f + 1) return false;
        ++asked;
        round_batch& b = batches.at(v, j);
        sim::wire::put(b.payload, q);
        b.bits += 16;
        return true;
      });
    }
  batches.flush(channels);
  channels.end_round(net, faults, relay_adv);
  {
    std::vector<bool> seen(q_count, false);
    for (graph::node_id j : participants)
      for (const sim::message& m : channels.inbox(j)) {
        std::fill(seen.begin(), seen.end(), false);
        std::size_t q = 0;
        sim::wire::reader in(m.payload);
        while (in.get(q)) {
          if (q >= q_count || seen[q]) continue;
          seen[q] = true;
          requests[static_cast<std::size_t>(j)].emplace_back(q, m.from);
        }
      }
  }
  for (graph::node_id j : participants) {
    const bool may_lie = faults.is_corrupt(j) && adv != nullptr;
    for (const auto& [q, requester] : requests[static_cast<std::size_t>(j)]) {
      const collapsed_slot& s = slot(j, q);
      std::optional<value> response;
      if (s.accepted && s.holds(*s.accepted)) response = s.direct;
      if (may_lie) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        response = adv->serve_retrieval(j, requester, q, response);
      }
      if (!response) continue;
      round_batch& b = batches.at(j, requester);
      sim::wire::put(b.payload, q);
      sim::wire::put_run(b.payload, *response);
      b.bits += instances[q].value_bits + 16;
    }
  }
  batches.flush(channels);
  channels.end_round(net, faults, relay_adv);
  {
    // Verify per message in one batch. Protocol-following holders answer
    // each index at most once per message (requests are deduped above), so
    // candidates within a message are distinct slots; adversarial payloads
    // that repeat an index are deduped here — first occurrence wins — so the
    // digested set is a deterministic function of the message contents.
    // Batching wider than a message would digest responses the serial walk
    // skips once a slot resolves; per-message batches keep the digested set
    // — and the field-op totals — identical to the one-at-a-time walk on
    // every duplicate-free (i.e. protocol-reachable) message.
    std::vector<collapsed_slot*> candidates;
    std::vector<value> responses;
    std::vector<const value*> views;
    std::vector<std::size_t> qs;
    std::vector<bool> msg_seen(q_count, false);
    for (graph::node_id r : participants) {
      for (const sim::message& m : channels.inbox(r)) {
        candidates.clear();
        responses.clear();
        qs.clear();
        std::fill(msg_seen.begin(), msg_seen.end(), false);
        std::size_t q = 0;
        value v;
        sim::wire::reader in(m.payload);
        while (in.get(q) && in.get_run(v)) {
          if (q >= q_count || msg_seen[q]) continue;
          msg_seen[q] = true;
          collapsed_slot& s = slot(r, q);
          if (!s.need_fallback || s.resolved_by_fallback || !s.accepted) continue;
          candidates.push_back(&s);
          responses.push_back(std::move(v));
          qs.push_back(q);
        }
        views.clear();
        views.reserve(responses.size());
        for (const value& resp : responses) views.push_back(&resp);
        const std::vector<std::uint64_t> digests =
            digest_copies(views, qs, instances, input_digests, digest_seed);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          collapsed_slot& s = *candidates[i];
          if (s.resolved_by_fallback) continue;
          if (digests[i] != *s.accepted) continue;  // forged
          s.direct = std::move(responses[i]);
          s.has_direct = true;
          s.direct_digest = *s.accepted;
          s.resolved_by_fallback = true;
        }
      }
    }
  }
  retrieval_span.close(net.elapsed());

  // Decide: the validated transcript when the accepted digest is matched,
  // the default (empty) value otherwise. Acceptance is uniform and any
  // accepted digest has >= f+1 honest holders serving retrievals, so every
  // honest node lands on the same payload per claimant.
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      collapsed_slot& s = slot(v, q);
      if (s.accepted && s.holds(*s.accepted))
        out.agreed[q][static_cast<std::size_t>(v)] = std::move(s.direct);
    }

  out.time = net.elapsed() - t0;
  return out;
}

claim_outcome broadcast_claims(claim_backend backend, channel_plan& channels,
                               sim::network& net, const sim::fault_set& faults,
                               const std::vector<claim_instance>& instances, int f,
                               eig_adversary* eig_adv, claim_adversary* claim_adv,
                               relay_adversary* relay_adv,
                               std::uint64_t digest_seed) {
  const std::size_t participants = channels.topology().active_nodes().size();
  switch (resolve_claim_backend(backend, participants, f)) {
    case claim_backend::eig: {
      obs::scoped_span span("claim_backend_eig", net.elapsed());
      claim_outcome out = broadcast_claims_eig(channels, net, faults, instances,
                                               f, eig_adv, relay_adv);
      span.end_tau(net.elapsed());
      return out;
    }
    case claim_backend::collapsed: {
      obs::scoped_span span("claim_backend_collapsed", net.elapsed());
      claim_outcome out = broadcast_claims_collapsed(
          channels, net, faults, instances, f, claim_adv, relay_adv, digest_seed);
      span.end_tau(net.elapsed());
      return out;
    }
    case claim_backend::auto_select:
      break;  // unreachable: resolve_claim_backend never returns it
  }
  NAB_ASSERT(false, "unresolved claim backend");
  return {};
}

}  // namespace nab::bb
