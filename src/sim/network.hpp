#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/link_faults.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"

namespace nab::sim {

/// Synchronous point-to-point network with the paper's deterministic
/// capacity/time model.
///
/// Protocols proceed in *steps* (synchronous communication rounds). During a
/// step, nodes queue messages with `send`; `end_step` then (a) charges every
/// link with the bits queued on it, (b) computes the step duration
///     tau = max over links e of bits(e) / z_e
/// (a link of capacity z_e carries z_e * tau bits in tau time — Section 1's
/// capacity model), (c) delivers all queued messages into per-node inboxes,
/// and (d) advances the simulation clock by tau.
///
/// The network itself is oblivious to faults: a Byzantine node "sends" via
/// the same API (protocol-level adversaries decide what). Messages sent on
/// nonexistent links are rejected — the paper's model has no such channel.
class network {
 public:
  explicit network(graph::digraph topology);

  const graph::digraph& topology() const { return topo_; }
  int universe() const { return topo_.universe(); }

  /// Queues a message for delivery at the end of the current step.
  /// Preconditions: the link from->to exists in the topology and bits > 0
  /// unless the payload is empty (zero-bit control messages are allowed for
  /// default-value semantics of missing messages).
  ///
  /// Under an attached fault model the link may erase the message: the bits
  /// are still charged (they were transmitted — the channel ate them) but
  /// nothing reaches the receiver's inbox. Senders that need reliability
  /// use lossy_transmit's ARQ loop instead.
  void send(message m);

  /// Ends the current step; returns its duration in time units.
  double end_step();

  /// Messages delivered to node v in the most recently completed step, in
  /// send order.
  const message_list& inbox(graph::node_id v) const;

  /// Clears all inboxes (start of a fresh protocol phase).
  void clear_inboxes();

  /// Charges `bits` on the link u -> v without delivering data. Used to
  /// account for protocol overheads whose content the simulation does not
  /// model bit-for-bit (e.g. claim dumps in dispute control). `tag` labels
  /// the charge for attached traces (channel emulation forwards the logical
  /// message's tag so per-protocol wire accounting survives multi-hop
  /// routing); it never affects time or capacity accounting.
  void charge(graph::node_id u, graph::node_id v, std::uint64_t bits,
              std::uint64_t tag = 0);

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
  /// listed link and records one trace event per link, in list order —
  /// exactly what calling `charge` link by link records.
  void charge_links(std::span<const std::uint32_t> links, std::uint64_t bits,
                    std::uint64_t tag);

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
  bool lossy_transmit(graph::node_id u, graph::node_id v, std::uint64_t bits,
                      std::uint64_t tag = 0);

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

  /// Cumulative bits ever carried, over all links.
  std::uint64_t total_bits() const { return total_bits_; }

  /// Bits carried by link u->v over the whole run.
  std::uint64_t link_bits(graph::node_id u, graph::node_id v) const;

  /// Number of completed steps.
  int steps() const { return steps_; }

  /// Attaches a passive traffic observer (nullptr detaches). Not owned.
  void attach_trace(trace* t) { trace_ = t; }

 private:
  graph::digraph topo_;
  std::vector<std::uint64_t> step_bits_;        // per-link bits queued this step
  std::vector<std::uint64_t> lifetime_bits_;    // per-link cumulative
  std::vector<message_list> pending_;           // queued this step, per receiver
  std::vector<message_list> inboxes_;           // delivered last step
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
