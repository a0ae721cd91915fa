#pragma once

#include <vector>

#include "core/adversary.hpp"
#include "graph/digraph.hpp"
#include "graph/tree_packing.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::core {

/// How Phase-1 forwarding time is modeled.
enum class propagation_mode {
  /// The paper's default: zero propagation delay, so all tree edges carry
  /// their share concurrently and Phase 1 takes L/gamma_k (one step).
  cut_through,
  /// Store-and-forward: a node forwards a share only after fully receiving
  /// it, so Phase 1 spans depth * L/gamma_k. This is the regime Appendix D's
  /// pipelining (Figure 3) fixes; tests/core/test_pipeline.cpp contrasts
  /// the two.
  store_and_forward,
  /// Appendix D's pipelined schedule: store-and-forward hops, but instance i
  /// enters the pipe in round i so a new instance completes every round at
  /// steady state. This is a whole-session schedule, not a per-phase one —
  /// sessions are executed by core::run_pipelined (fault-free regime), and
  /// run_phase1 rejects it. Exists as an enumerator so the runtime registry
  /// can expose pipelined-vs-plain as one propagation axis.
  pipelined,
};

/// Result of the unreliable broadcast.
struct phase1_result {
  /// Words assembled by each node (indexed by node id; meaningful for active
  /// honest nodes). Equals the input at every honest node iff no corruption
  /// happened on the trees.
  std::vector<std::vector<word>> received;
  /// Per-node ground-truth transcripts (the p1_* sections filled in).
  std::vector<node_claims> truth;
  double time = 0.0;
};

/// One Phase-1 transmission: tree `tree`'s share crosses from -> to.
struct phase1_hop {
  int tree = 0;
  graph::node_id from = 0;
  graph::node_id to = 0;
};

/// The hops of an arborescence packing rooted at `source`, bucketed by
/// level: levels[i] holds every tree edge i + 1 hops from the source,
/// tree-major with each tree's edges in order, so every hop's sender got
/// its share one level earlier. levels.size() is the deepest tree's depth.
std::vector<std::vector<phase1_hop>> phase1_levels(
    const std::vector<graph::spanning_tree>& trees, graph::node_id source, int universe);

/// Phase 1 of NAB (Appendix A): split the input into gamma shares of
/// L/gamma bits and flood share t along arborescence t of an Edmonds packing
/// rooted at the source. No fault detection — corrupt relays may deliver
/// garbage, which Phase 2 will catch.
///
/// `input` is the source's L-bit value as 16-bit words; `trees` must be a
/// valid packing (from pack_arborescences). Missing/extra words at receivers
/// are zero-filled to the input length.
phase1_result run_phase1(sim::network& net, const graph::digraph& g,
                         const sim::fault_set& faults, graph::node_id source,
                         const std::vector<word>& input,
                         const std::vector<graph::spanning_tree>& trees,
                         nab_adversary* adv = nullptr,
                         propagation_mode mode = propagation_mode::cut_through);

/// Words in each Phase-1 share of a `total`-word value: ceil(total/shares).
std::size_t chunk_words(std::size_t total, int shares);

/// Splits `input` into `shares` chunks of chunk_words(|input|, shares) words
/// each, in order, the tail zero-padded. Exposed for dispute-control
/// re-execution and tests.
std::vector<chunk> split_into_chunks(const std::vector<word>& input, int shares);

/// Inverse of split_into_chunks: the chunks' words in order, truncated or
/// zero-padded to `total` words.
std::vector<word> assemble_chunks(const std::vector<chunk>& chunks, std::size_t total);

}  // namespace nab::core
