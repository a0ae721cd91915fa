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
/// of g inside H. In characteristic 2 the +C_e / -C_e blocks coincide. The
/// certifier's three paths take their rows from the same private layout
/// builder.
gf::matrix<gf::gf2_16> build_check_matrix(const graph::digraph& g,
                                          const std::vector<graph::node_id>& h,
                                          const coding_scheme& coding);

/// Deterministically certifies the Equality Check property (EC): for every
/// H in Omega_k, D_H C_H = 0 must imply D_H = 0, i.e. rank(C_H) =
/// (n-f-1) * rho. Theorem 1 shows random matrices satisfy this with
/// probability >= 1 - 2^{-L/rho} C(n, n-f) (n-f-1) rho; this routine turns
/// the probabilistic statement into a checked certificate, so a deployment
/// can regenerate with a fresh seed on the (astronomically rare) failure.
///
/// Key fact (Appendix C.1): a left null vector D_H = (d_v)_{v in H} of C_H
/// is exactly an assignment of rho-vectors to H's nodes with
/// (d_u + d_v) C_e = 0 on every intra-H edge, so rank(C_H) = (|H|-1) rho
/// iff the only null vectors are the constant assignments. One dispatch on
/// (g, |H|) picks one of three paths, each with the same per-H verdicts in
/// the same (lexicographic) order:
///
///  - leave-one-out, when exactly one more node is active than |H| (every
///    H is active \ {x}): ONE reduction of the all-active-blocks matrix,
///    then a rank downdate over x's columns per member — the shape where
///    prefix sharing is worth the least and per-H work the largest
///    (K_64-complete, n = 128);
///  - dense, when directed-edge density exceeds 0.4: an independent
///    elimination of C_H per member, on the batched row kernels;
///  - prefix walk, otherwise: Omega_k walked as a DFS over lexicographic
///    prefixes with an append-only reduced row basis — pushing a node
///    activates its intra-prefix edge columns and inserts its rho rows,
///    backtracking truncates — so each H costs one node-extension
///    (~rho * rows * cols field ops) instead of a from-scratch elimination
///    (~rows^2 * cols).
///
/// tests/core/test_certify.cpp pins every path against a test-local
/// scalar-arithmetic oracle.
certification certify_coding(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding);

/// The failure-probability upper bound of Theorem 1 for field size
/// 2^field_bits: C(n, n-f) * (n-f-1) * rho / 2^field_bits (clamped to 1).
double theorem1_failure_bound(int n, int f, int rho, int field_bits);

}  // namespace nab::core
