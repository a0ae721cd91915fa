#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace nab::graph {

/// Deterministic work counters for the packing layer (fed into the runtime's
/// plan_* obs counters; part of the jobs-1-vs-N byte-identity contract).
struct pack_stats {
  std::uint64_t safety_checks = 0;       ///< per-sink certificate validations
  std::uint64_t flow_augmentations = 0;  ///< unit augmenting paths pushed
};

/// One unit-capacity spanning arborescence: the edges are directed away from
/// the root.
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
/// construction's (one fresh max-flow per sink and candidate edge). The
/// TreePacking.IncrementalMatchesReference* tests pin that identity edge for
/// edge, for every k up to gamma, against a from-scratch oracle in
/// tests/graph/test_tree_packing.cpp.
std::vector<spanning_tree> pack_arborescences_lovasz(const digraph& g, node_id root,
                                                     int k, pack_stats* stats = nullptr);

}  // namespace nab::graph
