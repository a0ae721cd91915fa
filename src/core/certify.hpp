#pragma once

#include <vector>

#include "core/coding.hpp"
#include "core/omega.hpp"
#include "gf/matrix.hpp"
#include "graph/digraph.hpp"

namespace nab::core {

/// Result of certifying a coding scheme against Theorem 1's condition.
struct certification {
  bool ok = false;
  /// Subgraphs H in Omega_k whose check matrix C_H is rank-deficient (empty
  /// when ok).
  std::vector<std::vector<graph::node_id>> failing;
};

/// Builds the paper's C_H matrix (Appendix C.1) for one candidate fault-free
/// subgraph H: rows indexed by (node-position, symbol) with the last node of
/// `h` as the reference, one column per capacity unit of every directed edge
/// of g inside H. In characteristic 2 the +C_e / -C_e blocks coincide.
gf::matrix<gf::gf2_16> build_check_matrix(const graph::digraph& g,
                                          const std::vector<graph::node_id>& h,
                                          const coding_scheme& coding);

/// Deterministically certifies the Equality Check property (EC): for every
/// H in Omega_k, D_H C_H = 0 must imply D_H = 0, i.e. rank(C_H) =
/// (n-f-1) * rho. Theorem 1 shows random matrices satisfy this with
/// probability >= 1 - 2^{-L/rho} C(n, n-f) (n-f-1) rho; this routine turns
/// the probabilistic statement into a checked certificate, so a deployment
/// can regenerate with a fresh seed on the (astronomically rare) failure.
/// One independent elimination per H: certify_coding_batched runs it as its
/// dense path, and tests pin the batched certifier's other two paths
/// against it.
certification certify_coding(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding);

/// The same certificate, computed with one incremental factorization shared
/// across all of Omega_k instead of an independent rank elimination per H.
///
/// Key fact (Appendix C.1): a left null vector D_H = (d_v)_{v in H} of C_H
/// is exactly an assignment of rho-vectors to H's nodes with
/// (d_u + d_v) C_e = 0 on every intra-H edge, so rank(C_H) = (|H|-1) rho
/// iff the only null vectors are the constant assignments. That condition
/// depends on rows "per node" and columns "per edge", both shared between
/// overlapping subgraphs — so Omega_k is walked as a DFS over lexicographic
/// prefixes, maintaining an append-only reduced row basis: pushing a node
/// activates its intra-prefix edge columns and inserts its rho rows,
/// backtracking truncates. Each H then costs one node-extension
/// (~rho * rows * cols field ops) instead of a from-scratch elimination
/// (~rows^2 * cols), an (n-f)-fold saving that makes K_16-class
/// certification affordable.
///
/// Two shapes dispatch away from the DFS. The f = 1 leave-one-out shape
/// (exactly one more active node than the target size) runs ONE reduction
/// of the all-active-blocks matrix and answers each member H_x by a rank
/// downdate over x's columns — the shape where DFS prefix sharing is worth
/// the least and where the per-H work is the largest (K_64-complete,
/// n = 128). Dense graphs otherwise fall back to per-H eliminations (the
/// naive path on the batched kernels). Results are bit-identical across
/// all paths (the per-H verdicts and their order); tests cross-check them.
certification certify_coding_batched(const graph::digraph& g, int f,
                                     const dispute_record& disputes,
                                     const coding_scheme& coding);

/// Estimated GF *word* count of certify_coding_batched over this Omega_k —
/// mirrors its full three-way dispatch so cost gates price the path that
/// will actually run: leave-one-out (one all-blocks Gauss-Jordan plus a
/// nullity-sized corner rank per member), dense/naive (a from-scratch
/// elimination per member), or the sparse DFS (per prefix-push work,
/// reconstructed from the LCP structure of omega's lexicographic order).
/// Comparable to the measured gf_axpy_words + gf_scale_words of a
/// certification run within a small constant factor (pinned by tests).
std::uint64_t certify_cost_estimate(const graph::digraph& g,
                                    const std::vector<std::vector<graph::node_id>>& omega,
                                    int rho);

/// The failure-probability upper bound of Theorem 1 for field size
/// 2^field_bits: C(n, n-f) * (n-f-1) * rho / 2^field_bits (clamped to 1).
double theorem1_failure_bound(int n, int f, int rho, int field_bits);

}  // namespace nab::core
