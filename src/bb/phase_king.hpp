#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "bb/eig.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// True iff the simple phase-king variant tolerates f faults among this many
/// participants (> 4f). Every auto_select boundary (session construction,
/// flag-engine resolution) checks this up front so an undersized group is
/// rejected cleanly instead of tripping an invariant deep inside a run.
constexpr bool phase_king_admissible(std::size_t participants, int f) {
  return participants > 4 * static_cast<std::size_t>(f);
}

/// Adversary hooks for corrupt participants of phase-king consensus.
class pk_adversary {
 public:
  virtual ~pk_adversary() = default;

  /// Value a corrupt node reports during an all-to-all exchange round.
  /// `phase` counts from 0; `is_king_round` marks the king's broadcast.
  virtual std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver,
                                       int phase, bool is_king_round,
                                       std::uint64_t honest) {
    (void)sender;
    (void)receiver;
    (void)phase;
    (void)is_king_round;
    return honest;
  }
};

/// Result of a phase-king run.
struct pk_result {
  /// decided[v] = final value at node v (meaningful for honest v).
  std::vector<std::uint64_t> decided;
  double time = 0.0;
};

/// Single-word phase-king consensus (the simple two-round-per-phase variant,
/// e.g. Attiya & Welch §5.2.5). f+1 phases; every honest node decides the
/// same value, equal to the common input when all honest inputs agree.
///
/// Resilience: requires participants > 4f (the price of its simplicity; use
/// EIG for optimal n > 3f resilience). The library's broadcast_default picks
/// automatically.
///
/// Every round runs on the channel plan's word lane (channel_plan::send_word
/// / end_word_round): one word per unicast, read back off channels.words().
///
/// `initial[v]` is node v's input (indexed by node id over the topology
/// universe; only active-node entries are read).
pk_result phase_king_consensus(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults,
                               const std::vector<std::uint64_t>& initial, int f,
                               std::uint64_t value_bits, pk_adversary* adv = nullptr,
                               relay_adversary* relay_adv = nullptr);

/// Byzantine broadcast built on phase-king: the source disseminates its
/// value (one round), then everyone runs consensus on what they received.
/// Validity holds because an honest source gives all honest nodes equal
/// inputs.
pk_result phase_king_broadcast(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults, graph::node_id source,
                               std::uint64_t input, int f, std::uint64_t value_bits,
                               pk_adversary* adv = nullptr,
                               relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
