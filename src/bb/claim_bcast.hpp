#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bb/channels.hpp"
#include "bb/eig.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/wire.hpp"

namespace nab::bb {

/// Which engine disseminates the Phase-3 claim transcripts (Appendix B,
/// DC1). All backends provide the same contract — every honest participant
/// decides the same payload per claimant, equal to the claimant's input when
/// the claimant is honest — so dispute control is backend-oblivious and the
/// dispute sets / convictions / agreed values are byte-identical across
/// backends (pinned by tests/bb/test_claim_backend_equivalence.cpp).
enum class claim_backend {
  /// collapsed when EIG's forwarded-label count would dominate DC1
  /// (participants * sum_{r<=f} n^r > 2048), else eig. Resolved by
  /// resolve_claim_backend at the session boundary.
  auto_select,
  /// The seed path and correctness oracle: PSL'80 EIG over the full
  /// transcripts. Theta(n^f) * L claim traffic — the documented
  /// hypercube_d5 bottleneck, infeasible at n >= 64.
  eig,
  /// Collapsed-claim Bracha-style broadcast: fixed-size GF(2^16) transcript
  /// digests (evaluation points seeded per run) travel through echo/ready
  /// quorums while the full transcript is unicast exactly once per
  /// (claimant, receiver) pair; digest-mismatched pairs (the disputed
  /// minority) fall back to a retrieval round asking <= 2f+1 of the
  /// echoer-holders, among which the >= f+1 honest holders any accepted
  /// digest guarantees always answer. DC1 drops from Theta(n^f) * L to
  /// O(n^2 * digest + disputes * f * L).
  collapsed,
};

/// Resolves auto_select for the given participant count. Never returns
/// auto_select.
claim_backend resolve_claim_backend(claim_backend requested,
                                    std::size_t participants, int f);

/// Fixed-size transcript digest: the payload (length-prefixed, split into
/// 16-bit limbs) evaluated as a polynomial over GF(2^16) at four evaluation
/// points derived from a per-run seed. Equal payloads always digest
/// equally; differing payloads of m limbs collide at a given point set with
/// probability ~(m/2^16)^4 — and because the points are drawn per run
/// (the session feeds its coding_seed) while the adversary hooks only ever
/// see digest *values*, constructing a collision is the same
/// seeded-randomness bet as defeating Theorem 1's random coding matrices.
/// A keyless fixed-point map would instead be linear algebra the claimant
/// could solve in closed form. (A deployment would use a cryptographic
/// hash; the simulation keeps the field arithmetic the paper's toolbox
/// already provides.)
struct claim_digest {
  std::array<std::uint16_t, 4> words{};

  bool operator==(const claim_digest&) const = default;

  /// The digest as one 64-bit transport word (wire form: the four words
  /// in sim::wire's lanes).
  std::uint64_t packed() const {
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < words.size(); ++i) out |= sim::wire::to_lane(words[i], i);
    return out;
  }
  static claim_digest from_packed(std::uint64_t p) {
    claim_digest d;
    for (std::size_t i = 0; i < d.words.size(); ++i) d.words[i] = sim::wire::lane(p, i);
    return d;
  }
  static_assert(std::tuple_size_v<decltype(words)> == sim::wire::lanes,
                "a digest is one transport word");
};

/// Wire size of a claim digest in bits.
inline constexpr std::uint64_t claim_digest_bits = 64;

/// Digests a payload (any byte content, including the empty payload) at the
/// evaluation points derived from `seed`. All participants of one broadcast
/// must use the same seed (it is protocol state, like the coding matrices).
claim_digest claim_digest_of(const value& payload, std::uint64_t seed = 0);

/// Batched form: digests every payload (non-null pointers, one shared seed)
/// and returns the digests in input order, each equal to claim_digest_of's.
/// Payloads of equal length advance in lockstep — one gf2_16::scale row
/// pass per absorbed limb across the whole group — so they run through the
/// dispatched SIMD row kernels instead of per-payload table walks. Each
/// payload charges 16·(len+1) field ops, as claim_digest_of does: to
/// gf_mul_ops when no other payload of the batch has its length, to
/// gf_scale_words when it is part of a same-length group.
std::vector<claim_digest> claim_digests_of(const std::vector<const value*>& payloads,
                                           std::uint64_t seed = 0);

/// One claim to disseminate: `source` wants every participant to decide its
/// `input` transcript. `value_bits` is the wire size charged per transmitted
/// copy of the transcript (required > 0).
struct claim_instance {
  graph::node_id source = 0;
  value input;
  std::uint64_t value_bits = 0;
};

/// Result of one batched claim dissemination.
struct claim_outcome {
  /// agreed[q][v] = payload node v decided for instance q (meaningful for
  /// honest v; the empty payload is the default for claimants nobody could
  /// validate).
  std::vector<std::vector<value>> agreed;
  double time = 0.0;
};

/// Adversary hooks for corrupt participants of the collapsed backend. Every
/// hook receives what an honest node would have sent; the default behaves
/// honestly, so strategies override only their attack surface. (The EIG
/// backend keeps its own eig_adversary.)
class claim_adversary {
 public:
  virtual ~claim_adversary() = default;

  /// Transcript a corrupt *claimant* proposes to `receiver` (the
  /// equivocation point: different receivers may get different payloads).
  virtual value propose_payload(graph::node_id claimant, graph::node_id receiver,
                                const value& honest) {
    (void)claimant;
    (void)receiver;
    return honest;
  }

  /// Digest a corrupt claimant announces to `receiver` alongside the
  /// proposed payload. `honest` is the true digest of the payload the hook
  /// above returned — announcing anything else poisons the pair into the
  /// retrieval path (which the quorum design makes harmless).
  virtual claim_digest announce_digest(graph::node_id claimant,
                                       graph::node_id receiver,
                                       const claim_digest& honest) {
    (void)claimant;
    (void)receiver;
    return honest;
  }

  /// Echo a corrupt participant forwards to `receiver` for instance `q`;
  /// `honest` is its true holding (nullopt = no matching payload held).
  /// Returning nullopt suppresses the echo.
  virtual std::optional<claim_digest> echo_digest(
      graph::node_id participant, graph::node_id receiver, std::size_t q,
      const std::optional<claim_digest>& honest) {
    (void)participant;
    (void)receiver;
    (void)q;
    return honest;
  }

  /// May a corrupt participant withhold its READY for instance `q` from
  /// `receiver`? (Selective suppression is the classical totality attack;
  /// the ready-amplification rounds defeat it.)
  virtual bool suppress_ready(graph::node_id participant, graph::node_id receiver,
                              std::size_t q) {
    (void)participant;
    (void)receiver;
    (void)q;
    return false;
  }

  /// Response a corrupt participant serves for a retrieval request. `honest`
  /// is nullopt when the node holds no digest-matching copy (honest behavior
  /// is then to stay silent); forged responses are filtered by the
  /// requester's digest check.
  virtual std::optional<value> serve_retrieval(graph::node_id participant,
                                               graph::node_id requester,
                                               std::size_t q,
                                               const std::optional<value>& honest) {
    (void)participant;
    (void)requester;
    (void)q;
    return honest;
  }
};

/// EIG oracle backend: the seed's DC1 path, reshaped to the interface.
claim_outcome broadcast_claims_eig(channel_plan& channels, sim::network& net,
                                   const sim::fault_set& faults,
                                   const std::vector<claim_instance>& instances,
                                   int f, eig_adversary* adv = nullptr,
                                   relay_adversary* relay_adv = nullptr);

/// Collapsed-claim Bracha-style backend (participants > 3f): digest
/// echo/ready agreement + single direct transcript copies + retrieval
/// fallback for the digest-mismatched minority, served by at most 2f+1 of
/// the holders the echo round exposed. Each (claimant, receiver) pair the
/// retrieval round serves counts once in the obs counter claim_fallbacks
/// (zero when every claimant proposed consistently, the honest steady
/// state). `digest_seed` picks the digest evaluation points (see
/// claim_digest). The GF counters charge one digest per received copy
/// (claim_digests_of's rule, one batch per round), though copies equal to
/// their claimant's input share its digest.
claim_outcome broadcast_claims_collapsed(
    channel_plan& channels, sim::network& net, const sim::fault_set& faults,
    const std::vector<claim_instance>& instances, int f,
    claim_adversary* adv = nullptr, relay_adversary* relay_adv = nullptr,
    std::uint64_t digest_seed = 0);

/// Dispatches on a *resolved* backend (auto_select is resolved here too, on
/// the channel plan's participant count).
claim_outcome broadcast_claims(claim_backend backend, channel_plan& channels,
                               sim::network& net, const sim::fault_set& faults,
                               const std::vector<claim_instance>& instances, int f,
                               eig_adversary* eig_adv = nullptr,
                               claim_adversary* claim_adv = nullptr,
                               relay_adversary* relay_adv = nullptr,
                               std::uint64_t digest_seed = 0);

}  // namespace nab::bb
