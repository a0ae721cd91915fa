#pragma once

#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// Logical value carried by classical BB: opaque words. The empty vector is
/// the *default value* that the model substitutes for missing messages.
/// Arena-backed (sim/run_arena.hpp): every relayed copy of a value inside a
/// run draws from the per-run arena when one is ambient.
using value = sim::payload;

/// Adversary hooks for corrupt participants of EIG broadcast. Every method
/// receives the value an honest node would have sent and may return anything
/// (including the empty/default value, which models "not sending").
class eig_adversary {
 public:
  virtual ~eig_adversary() = default;

  /// Round-1 value a corrupt *source* sends to `receiver` (equivocation
  /// point: different receivers may get different values).
  virtual value source_value(graph::node_id source, graph::node_id receiver,
                             const value& honest) {
    (void)source;
    (void)receiver;
    return honest;
  }

  /// Value a corrupt node relays for EIG label `sigma` to `receiver` in
  /// rounds >= 2.
  virtual value relay_value(graph::node_id sender, graph::node_id receiver,
                            const std::vector<graph::node_id>& sigma,
                            const value& honest) {
    (void)sender;
    (void)receiver;
    (void)sigma;
    return honest;
  }
};

/// One broadcast instance: `source` wants to broadcast `input`.
struct eig_instance {
  graph::node_id source = 0;
  value input;
  /// Wire size charged per transmitted value for this instance; 0 means
  /// "use the call-level value_bits".
  std::uint64_t value_bits = 0;
};

/// Result of a batch of EIG broadcasts.
struct eig_result {
  /// decisions[q][v] = what node v decided for instance q. Entries for
  /// corrupt v are whatever the protocol state happened to be — only honest
  /// nodes' decisions are meaningful.
  std::vector<std::vector<value>> decisions;
  /// Simulated time consumed (all instances share rounds).
  double time = 0.0;
};

/// Exponential Information Gathering Byzantine broadcast — the classical
/// Pease–Shostak–Lamport algorithm [19] the paper invokes for step 2.2 and
/// Phase 3. Runs f+1 rounds; correct whenever the number of participants
/// (active nodes of the channel plan's topology) exceeds 3f.
///
/// All instances run simultaneously, sharing the f+1 communication rounds —
/// this is how NAB broadcasts n 1-bit flags "in parallel" without paying n
/// sequential protocol executions.
///
/// `value_bits` is the wire size charged per transmitted value; label
/// routing overhead is charged on top (8 bits per label entry).
eig_result eig_broadcast_all(channel_plan& channels, sim::network& net,
                             const sim::fault_set& faults,
                             const std::vector<eig_instance>& instances, int f,
                             std::uint64_t value_bits, eig_adversary* adv = nullptr,
                             relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
