#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "util/ambient.hpp"

namespace nab::sim {

/// Parameters of the per-link fault process: a two-state Gilbert-Elliott
/// erasure chain (the classic bursty-loss model, cf. sparsenc's
/// test.nhopRecoder-gilbert.c) plus a fixed per-link capacity/latency
/// dilation drawn once per link. Each link u->v runs its own chain; a
/// transmission samples an erasure with the current state's loss
/// probability, then the chain takes one transition step:
///
///     good --p_good_to_bad--> bad --p_bad_to_good--> good
///
/// `jitter` widens per-link time: link u->v's bits take a fixed factor in
/// [1, 1 + jitter] longer than the clean capacity model says (drawn from
/// the link's seed, so it is stable for the whole run). `retry_budget` is
/// consumed by the honest ARQ layer (network::lossy_transmit): at most
/// that many retransmissions per logical message before the sender gives
/// up and the receiver falls back to the missing-message default.
struct link_fault_params {
  double p_loss_good = 0.0;    ///< erasure probability in the good state
  double p_loss_bad = 0.0;     ///< erasure probability in the bad state
  double p_good_to_bad = 0.0;  ///< per-transmission good -> bad probability
  double p_bad_to_good = 1.0;  ///< per-transmission bad -> good probability
  double jitter = 0.0;         ///< per-link time dilation amplitude, in [0, 1]
  int retry_budget = 12;       ///< max retransmissions per logical message

  /// True when the process can never erase a transmission (it may still
  /// dilate time when jitter > 0). The dispute layer keys its
  /// erasure-vs-tamper discrimination off this: a lossless process cannot
  /// explain a missing message, so classification stays exactly the clean
  /// model's.
  bool lossless() const { return p_loss_good <= 0.0 && p_loss_bad <= 0.0; }

  /// True when attaching the model cannot perturb a clean run at all (no
  /// erasures and no time dilation) — the zero-loss byte-identity guard.
  bool inert() const { return lossless() && jitter <= 0.0; }

  bool operator==(const link_fault_params&) const = default;
};

/// Named presets accepted everywhere a loss spec string is (registry axis,
/// fleet --loss). "zero" is the inert model — attached but unable to
/// perturb anything; it exists to prove exactly that.
std::vector<std::string> loss_preset_names();

/// Parses a loss spec: a preset name ("zero", "light", "bursty", "heavy")
/// or a custom "p_good,p_bad,p_g2b,p_b2g" 4-tuple of probabilities in
/// [0, 1]. Throws nab::error naming the offending spec on anything else
/// ("none" is deliberately rejected too: it means *no model attached* and
/// is handled by callers before parsing).
link_fault_params parse_loss_spec(std::string_view spec);

/// Deterministic per-link fault process over a universe of n nodes. Each
/// directed link u->v owns an independent splitmix64 stream seeded from
/// (model seed, link index u*n+v), so the erasure/transition history of a
/// link depends only on the seed and how many transmissions that link has
/// carried — bit-identical for any `--jobs` count or scheduling, same as
/// every other randomness source in the repo. Thread-confined like
/// sim::trace (one model per run, installed ambiently).
class link_fault_model {
 public:
  link_fault_model(link_fault_params params, std::uint64_t seed);

  const link_fault_params& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }

  /// Samples one transmission on u->v: returns true when the link erased
  /// it, and advances the link's Gilbert-Elliott chain one step. Counts
  /// obs::counter::link_drops per erasure and link_burst_spans per
  /// good->bad transition.
  bool erase(graph::node_id u, graph::node_id v, int universe);

  /// The link's fixed time-dilation factor: exactly 1.0 at jitter 0,
  /// otherwise 1 + jitter * u01(link stream) drawn once per link. Pure
  /// function of (seed, link index) — stateless, so calls never interact
  /// with the erasure chain.
  double time_dilation(graph::node_id u, graph::node_id v, int universe) const;

  /// True when u->v's chain currently sits in the bad (bursty) state.
  /// Exposes chain state for tests; fresh links start good.
  bool in_bad_state(graph::node_id u, graph::node_id v, int universe) const;

 private:
  struct chain {
    std::uint64_t rng = 0;  ///< splitmix64 stream state (0 = uninitialized)
    bool bad = false;
  };

  chain& link_chain(graph::node_id u, graph::node_id v, int universe);

  link_fault_params params_;
  std::uint64_t seed_;
  std::vector<chain> chains_;  ///< lazily sized universe^2, indexed u*n+v
};

/// The calling thread's ambient link-fault model (nullptr = perfect links).
/// Networks constructed on a thread attach it automatically, mirroring
/// sim::ambient_trace, so the fault process reaches the networks a
/// core::session creates internally while fleet shards stay independent.
inline link_fault_model* ambient_link_faults() {
  return ambient<link_fault_model>::current;
}

/// Installs `m` as the calling thread's ambient fault model for the
/// lifetime of the scope; restores the previous one on destruction. Scopes
/// nest; nullptr suspends faults.
using scoped_link_faults = ambient<link_fault_model>::scope;

}  // namespace nab::sim
