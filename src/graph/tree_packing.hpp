#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace nab::graph {

/// Deterministic work counters for the packing layer (fed into the runtime's
/// plan_* obs counters; part of the jobs-1-vs-N byte-identity contract).
struct pack_stats {
  std::uint64_t safety_checks = 0;       ///< per-sink certificate validations
  std::uint64_t flow_augmentations = 0;  ///< unit augmenting paths pushed
};

/// One unit-capacity spanning tree. For arborescences the edges are directed
/// away from the root; for undirected trees the orientation is meaningless.
struct spanning_tree {
  std::vector<edge> edges;  // each with cap == 1 (one capacity unit used)

  /// Parent-pointer view: parent[v] == u if (u, v) is a tree edge; the root
  /// (or any non-tree node) maps to -1. `n` is the graph universe size.
  std::vector<node_id> parents(int n) const;
};

/// Packs `k` edge-disjoint (capacity-respecting) spanning arborescences
/// rooted at `root` into the active subgraph of g.
///
/// This is the constructive side of Edmonds' branching theorem, via Lovász's
/// proof: trees are grown one at a time; an edge (u, v) leaving the partial
/// tree is added only if removing it keeps MINCUT(root, w) >= remaining-trees
/// for every node w ("safe edge"); a safe edge always exists. Edge
/// capacities act as parallel unit edges.
///
/// Phase 1 of NAB broadcasts L bits as gamma_k shares of L/gamma_k bits, one
/// share per arborescence (paper Appendix A).
///
/// Throws nab::error if k exceeds broadcast_mincut(g, root) (infeasible by
/// Edmonds' theorem).
///
/// Strategy: feasibility is certified once with per-sink capped max-flows
/// (the flow certificates are retained), then a handful of cheap randomized
/// greedy attempts (scarcest-head bias; they succeed on capacity-rich AND
/// regular sparse graphs), falling back to the always-correct incremental
/// Lovász construction below, which repairs the retained certificates per
/// candidate edge instead of recomputing flows from scratch.
std::vector<spanning_tree> pack_arborescences(const digraph& g, node_id root, int k,
                                              pack_stats* stats = nullptr);

/// The exact Lovász construction on its own (no greedy fast path). Always
/// succeeds when k <= broadcast_mincut(g, root). Exposed for tests and for
/// callers that need deterministic tree shapes. The safe-edge predicate is
/// evaluated incrementally against retained per-sink flow certificates
/// (cancel one unit, re-augment at most one path), which is exact by
/// max-flow/min-cut, so the trees are identical to the from-scratch
/// construction's.
std::vector<spanning_tree> pack_arborescences_lovasz(const digraph& g, node_id root,
                                                     int k, pack_stats* stats = nullptr);

/// The pre-incremental construction (greedy with max-residual bias, Lovász
/// safety via from-scratch per-sink max-flows). Retained as the reference
/// implementation for equivalence tests and old-vs-new bench rows; not used
/// by the protocol.
std::vector<spanning_tree> pack_arborescences_reference(const digraph& g, node_id root,
                                                        int k);

/// Greedily packs `k` edge-disjoint undirected spanning trees (weights act
/// as parallel unit edges), retrying with `attempts` random edge orders.
///
/// Nash-Williams/Tutte guarantee floor(U/2) trees exist when the global min
/// cut is U; this packer is a randomized heuristic (exact packing is matroid
/// union, which the protocol never needs: Phase 1 packs directed
/// arborescences with pack_arborescences). Returns the packed trees, or an
/// empty vector if all attempts fail.
std::vector<spanning_tree> pack_undirected_trees(const ugraph& g, int k, rng& rand,
                                                 int attempts = 64);

}  // namespace nab::graph
