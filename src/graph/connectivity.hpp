#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dinic.hpp"

namespace nab::graph {

/// Number of internally node-disjoint directed paths from s to t in the
/// active subgraph (Menger). Adjacent pairs get universe()-sized "infinity"
/// short-circuited: if edge s->t exists it counts as one path plus the
/// node-disjoint paths avoiding it.
int vertex_connectivity(const digraph& g, node_id s, node_id t);

/// Global (directed) vertex connectivity: min over ordered active pairs of
/// vertex_connectivity. The paper's "network connectivity at least 2f+1"
/// prerequisite is checked with this.
int global_vertex_connectivity(const digraph& g);

/// Decision version of the above: is the global vertex connectivity >= k?
/// Runs the same pairwise flows but caps them at k (the split graph's
/// terminal arcs get capacity k), so each pair costs O(k) augmentations and
/// the scan exits on the first deficient pair — the right tool for the
/// runner's per-run 2f+1 precondition on freshly drawn random topologies.
bool global_vertex_connectivity_at_least(const digraph& g, int k);

/// A set of `k` internally node-disjoint directed s->t paths, each a node
/// sequence s, ..., t. Throws nab::error if fewer than k disjoint paths
/// exist. The cold per-pair reference: the complete-graph emulation builds
/// its routes with disjoint_path_finder below, which tests pin path for path
/// against this function.
std::vector<std::vector<node_id>> node_disjoint_paths(const digraph& g, node_id s,
                                                      node_id t, int k);

/// Reusable disjoint-path extractor for route-table builds: constructs the
/// node-split residual network ONCE per graph and re-runs it per (s, t) pair
/// with a capacity reset instead of rebuilding two dense (2n)^2 matrices per
/// pair. The split-graph arc order is independent of the terminal pair (only
/// the two terminal internal-arc capacities differ), and Dinic explores arcs
/// in insertion order, so `find(s, t, k)` returns byte-identical paths to
/// `node_disjoint_paths(g, s, t, k)` — pinned by the planner equivalence
/// tests. Not thread-safe; use one finder per worker.
class disjoint_path_finder {
 public:
  explicit disjoint_path_finder(const digraph& g);

  /// Same contract (and output) as node_disjoint_paths(g, s, t, k): throws
  /// nab::error when fewer than k internally node-disjoint paths exist.
  std::vector<std::vector<node_id>> find(node_id s, node_id t, int k);

  /// Augmenting paths pushed across all find() calls on this instance.
  std::uint64_t augmentations() const { return net_.augmenting_paths; }

 private:
  int n_;
  capacity_t terminal_cap_;
  detail::dinic net_;
  std::vector<std::size_t> internal_idx_;  // per node v: index of (2v,2v+1) in adj[2v]
  std::vector<bool> active_;
  // Scratch for flow decomposition: per split node, (to, amount) rows in
  // ascending `to` order, rebuilt per find().
  std::vector<std::vector<std::pair<int, capacity_t>>> flow_adj_;
};

}  // namespace nab::graph
