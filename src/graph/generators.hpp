#pragma once

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace nab::graph {

/// Complete digraph on n nodes, every directed link with capacity `cap`.
digraph complete(int n, capacity_t cap = 1);

/// The 4-node directed graph of the paper's Figure 1(a): unit-capacity
/// bidirectional links on pairs {1,2}, {1,3}, {1,4}, {2,3}, {3,4} (0-based:
/// {0,1}, {0,2}, {0,3}, {1,2}, {2,3}); no link between nodes 2 and 4. This
/// reproduces every value the paper states for it: MINCUT(G,1,2) =
/// MINCUT(G,1,4) = 2, MINCUT(G,1,3) = 3, gamma = 2, and U_k = 2 after the
/// {2,3} dispute (tests assert all of these).
digraph paper_fig1a();

/// Figure 1(b): Figure 1(a) after nodes 2 and 3 (0-based 1 and 2) are found
/// in dispute — both directed links between them removed.
digraph paper_fig1b();

/// The 4-node directed graph of Figure 2(a): capacities (1->2)=2, (1->3)=1,
/// (2->3)=1, (2->4)=1, (3->4)=1 (0-based shift). gamma = 2 and the two
/// unit-capacity spanning trees of Figure 2(c) pack into it, sharing link
/// (1,2) — exactly the paper's worked example.
digraph paper_fig2();

/// Bidirectional ring 0-1-...-n-1-0 with uniform capacity.
digraph ring(int n, capacity_t cap = 1);

/// Erdos–Renyi digraph: each ordered pair (u, v) gets a link with
/// probability p and capacity uniform in [cap_lo, cap_hi]. A bidirectional
/// Hamiltonian cycle with capacity cap_lo is added first so the result is
/// always strongly connected.
digraph erdos_renyi(int n, double p, capacity_t cap_lo, capacity_t cap_hi, rng& rand);

/// Random d-regular-ish bidirectional graph: d distinct neighbors per node
/// (best effort via random matching sweeps), capacities uniform in
/// [cap_lo, cap_hi] (same both ways per pair).
digraph random_regular(int n, int d, capacity_t cap_lo, capacity_t cap_hi, rng& rand);

/// "Dumbbell" of the registry's capacity-skew family: two complete clusters
/// of size n/2 with fat internal links (capacity `fat`) joined by thin
/// bidirectional bridges of capacity `thin`. Capacity-oblivious BB pays for
/// the thin links on every bit; NAB routes around them.
digraph dumbbell(int n, capacity_t fat, capacity_t thin);

/// Path of `hops` complete clusters of size `cluster` (consecutive clusters
/// fully interconnected), uniform capacity. Used by the pipelining tests
/// (Figure 3): broadcast must travel `hops` hops.
digraph path_of_cliques(int hops, int cluster, capacity_t cap = 1);

/// Binary hypercube on 2^dim nodes: nodes u, v are linked (bidirectionally,
/// capacity `cap`) iff their ids differ in exactly one bit. Vertex
/// connectivity equals `dim`, so it supports f <= (dim-1)/2 — a classic
/// sparse-but-resilient datacenter topology for fleet sweeps.
digraph hypercube(int dim, capacity_t cap = 1);

/// Clustered WAN: `clusters` complete clusters of `cluster_size` nodes with
/// fat intra-cluster links (capacity `intra`), plus thin inter-cluster links
/// (capacity `inter`) forming a complete graph between clusters — every pair
/// of clusters is joined on `trunks` node pairs chosen round-robin, so
/// inter-cluster connectivity grows with `trunks`. Models geo-distributed
/// replica groups whose WAN trunks are the capacity bottleneck.
digraph clustered_wan(int clusters, int cluster_size, capacity_t intra,
                      capacity_t inter, int trunks = 2);

/// Complete graph with uniform capacity `fat` except one bidirectional weak
/// link of capacity 1 between the last two nodes. The intro claim's network
/// (tests/paper): capacity-oblivious protocols exchange full-length values
/// over every link and are throttled by the weak link, so their throughput
/// stays O(1) while NAB's grows with `fat` — an unbounded gap.
digraph complete_with_weak_link(int n, capacity_t fat);

}  // namespace nab::graph
