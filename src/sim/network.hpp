#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/link_faults.hpp"
#include "sim/trace.hpp"

namespace nab::sim {

/// One entry of a precomputed link load: `count` charges of the same bits
/// on link `link` (a network::link_index id).
struct link_load {
  std::uint32_t link;
  std::uint32_t count;
  bool operator==(const link_load&) const = default;
};

/// Link meter of a synchronous point-to-point network under the paper's
/// deterministic capacity/time model.
///
/// Protocols proceed in *steps* (synchronous communication rounds). During a
/// step, callers charge the bits they put on each link (`charge`,
/// `charge_links`, `charge_loads`, `lossy_transmit`); `end_step` then
/// computes the step duration
///     tau = max over links e of bits(e) / z_e
/// (a link of capacity z_e carries z_e * tau bits in tau time — Section 1's
/// capacity model), advances the simulation clock by tau and hands an
/// attached trace the same per-link loads, one event per link. The network
/// carries no data: bb::channel_plan delivers the classical-BB
/// sub-protocols' messages and charges their hops here, and Phases 1 and
/// 2.1 charge their coded symbols with lossy_transmit.
///
/// The meter is oblivious to faults: a Byzantine node's traffic is charged
/// like any other (protocol-level adversaries decide what it sends). Charges
/// on nonexistent links are rejected — the paper's model has no such channel.
class network {
 public:
  explicit network(graph::digraph topology);

  const graph::digraph& topology() const { return topo_; }
  int universe() const { return topo_.universe(); }

  /// Ends the current step and returns its duration in time units. An
  /// attached trace receives one event per link that carried bits in the
  /// step, in ascending link id: the only place traffic is recorded.
  double end_step();

  /// Charges `bits` on the link u -> v in the current step. Throws
  /// nab::error when the topology has no link u -> v.
  void charge(graph::node_id u, graph::node_id v, std::uint64_t bits);

  /// Dense id of the directed link u -> v over `universe` nodes (row-major).
  /// The one definition of link ids: it indexes the network's per-link
  /// arrays, and route tables precompute their per-pair link lists in it
  /// (bb/channels.hpp).
  static std::uint32_t link_index(int universe, graph::node_id u, graph::node_id v) {
    return static_cast<std::uint32_t>(u) * static_cast<std::uint32_t>(universe) +
           static_cast<std::uint32_t>(v);
  }

  /// Throws nab::error unless `links` (ascending link ids over a universe
  /// of `universe` nodes) all name links of the topology. Bulk chargers run
  /// it once per round over every link they may charge, in place of
  /// charge's per-call check.
  void require_links(int universe, std::span<const std::uint32_t> links);

  /// `charge` over a precomputed link list, without the per-link check
  /// (callers vouch for the list with require_links): adds `bits` to every
  /// listed link.
  void charge_links(std::span<const std::uint32_t> links, std::uint64_t bits);

  /// Adds `bits` times each entry's count to its link: the per-link totals
  /// of `count` charge_links calls per link, in one pass. Callers vouch for
  /// the links with require_links, as for charge_links.
  void charge_loads(std::span<const link_load> loads, std::uint64_t bits);

  /// Charges one logical message of `bits` on u -> v under the attached
  /// fault model, with link-layer ARQ: the initial copy is charged, and
  /// while the model erases the copy and the retry budget allows, a 1-bit
  /// nack is charged on the reverse link (when the topology has one) and
  /// the copy is retransmitted — all within the current step, so loss shows
  /// up as elevated tau, never extra protocol rounds. Returns true when a
  /// copy got through, false when the budget was exhausted (the receiver
  /// falls back to its missing-message default). With no fault model
  /// attached this is exactly `charge` + true. Counts
  /// obs link_retransmits / link_retry_exhaustions and records the
  /// margin_retry_headroom gauge for messages that needed retries.
  bool lossy_transmit(graph::node_id u, graph::node_id v, std::uint64_t bits);

  /// The attached per-link fault model (nullptr = perfect links). Picked up
  /// from the thread's ambient model at construction, like the trace.
  link_fault_model* link_faults() const { return faults_; }

  /// True when the attached fault model can actually erase transmissions.
  /// The dispute layer keys erasure-vs-tamper discrimination off this — an
  /// inert (p_loss = 0) model leaves classification byte-identical to the
  /// clean simulator's.
  bool lossy() const { return faults_ != nullptr && !faults_->params().lossless(); }

  /// Cumulative simulated time over all completed steps.
  double elapsed() const { return elapsed_; }

  /// Cumulative bits charged over all completed steps and links. Per-link
  /// totals are an attached trace's (trace::link_total).
  std::uint64_t total_bits() const { return total_bits_; }

  /// Number of completed steps.
  int steps() const { return steps_; }

  /// Attaches a passive traffic observer (nullptr detaches). Not owned.
  /// It sees the steps that end while it is attached.
  void attach_trace(trace* t) { trace_ = t; }

 private:
  graph::digraph topo_;
  std::vector<std::uint64_t> step_bits_;  // per-link bits charged this step
  double elapsed_ = 0.0;
  std::uint64_t total_bits_ = 0;
  int steps_ = 0;
  trace* trace_ = nullptr;
  link_fault_model* faults_ = nullptr;
  std::vector<graph::edge> edges_;  // see kept_edges()
  bool edges_kept_ = false;

  std::size_t link_index(graph::node_id u, graph::node_id v) const {
    return link_index(universe(), u, v);
  }

  /// The topology's edges in ascending link-id order, built at the first
  /// step or link check (not in the constructor, so constructing a network
  /// costs what it did before) and kept for the network's lifetime.
  const std::vector<graph::edge>& kept_edges();
};

}  // namespace nab::sim
