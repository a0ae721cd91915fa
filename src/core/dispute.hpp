#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "bb/channels.hpp"
#include "bb/claim_bcast.hpp"
#include "core/adversary.hpp"
#include "core/coding.hpp"
#include "core/omega.hpp"
#include "graph/digraph.hpp"
#include "graph/tree_packing.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::core {

/// Everything Phase 3 needs to replay an instance: the deterministic
/// protocol inputs plus the ground-truth transcripts gathered in Phases 1-2.
struct instance_context {
  graph::node_id source = 0;
  std::vector<word> input;  ///< the source's true input words
  int rho = 1;
  std::vector<graph::spanning_tree> trees;
  const coding_scheme* coding = nullptr;
  /// Ground-truth per-node transcripts (p1 and p2 sections merged).
  std::vector<node_claims> truth;
  /// The per-node MISMATCH flags as agreed by the step-2.2 broadcast.
  std::vector<bool> agreed_flags;
  /// True when the instance ran over links that can erase messages
  /// (sim::link_fault_model with nonzero loss attached). Dispute control
  /// then classifies a *missing* receipt claim as erasure — skip, no
  /// dispute, since honest ARQ exhaustion leaves exactly that signature —
  /// while *mismatching* content stays tamper (disputed as on clean links).
  /// False keeps classification byte-identical to the clean simulator.
  bool lossy_links = false;
};

/// Result of one execution of dispute control.
struct dispute_outcome {
  /// Newly discovered disputing pairs (already merged into the record).
  std::vector<std::pair<graph::node_id, graph::node_id>> new_disputes;
  /// Nodes convicted this round (DC3 re-execution + DC4 cover intersection).
  std::vector<graph::node_id> newly_convicted;
  /// The instance's agreed output (the DC1 broadcast of the source input).
  std::vector<word> agreed_value;
  /// Wire bits DC1's claim dissemination consumed (the Theta(n^f) * L term
  /// the collapsed backend collapses — recorded so the drop is asserted per
  /// run, not eyeballed).
  std::uint64_t claim_bits = 0;
  double time = 0.0;
};

/// Phase 3 of NAB (Appendix B).
///
/// DC1: every node classical-BB-broadcasts its claimed transcripts, and the
///      source broadcasts its input (which becomes the instance outcome —
///      correctness of the k-th instance is a byproduct).
/// DC2: cross-checks sender claims against receiver claims; any mismatch
///      puts the pair in dispute (at least one of the two is faulty; two
///      fault-free nodes never dispute).
/// DC3: replays each node's prescribed deterministic behavior from its
///      claimed receipts; inconsistency convicts the node outright.
/// DC4: intersects all fault sets of size <= f that explain the cumulative
///      disputes; nodes in every explaining set are necessarily faulty.
///
/// `record` accumulates across instances and is updated in place. `f_bb` is
/// the residual fault budget used by the classical BB sub-protocol
/// (f minus previously convicted nodes); `f` is the paper's global budget
/// used for explaining-set enumeration.
///
/// `backend` selects the DC1 claim-dissemination engine (bb/claim_bcast.hpp;
/// auto_select resolves on the channel plan's participant count), and
/// `digest_seed` feeds the collapsed backend's digest evaluation points
/// (sessions pass their coding_seed — shared protocol state, like the
/// coding matrices). Dispute sets, convictions, and the agreed value are
/// byte-identical across backends — only the wire cost (claim_bits)
/// differs.
dispute_outcome run_dispute_control(sim::network& net, bb::channel_plan& channels,
                                    const graph::digraph& gk,
                                    const sim::fault_set& faults, int f_bb, int f,
                                    const instance_context& ctx,
                                    dispute_record& record,
                                    nab_adversary* adv = nullptr,
                                    bb::claim_backend backend = bb::claim_backend::eig,
                                    std::uint64_t digest_seed = 0);

/// DC4's search: the nodes contained in *every* fault set of size <= f that
/// covers `pairs` (holds an endpoint of each), in ascending order, or
/// nullopt when no such set exists. Also enumerated per candidate pair set
/// by gamma_star_exhaustive (core/capacity.cpp).
std::optional<std::vector<graph::node_id>> necessarily_faulty(
    const std::vector<std::pair<graph::node_id, graph::node_id>>& pairs, int f);

/// DC4 in isolation: necessarily_faulty over the cumulative dispute pairs.
/// Throws nab::error if no explaining set exists (which would contradict
/// dispute soundness). Exposed for tests and analysis.
std::vector<graph::node_id> explaining_intersection(
    const std::set<std::pair<graph::node_id, graph::node_id>>& pairs, int f);

}  // namespace nab::core
