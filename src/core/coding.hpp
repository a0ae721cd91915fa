#pragma once

#include <vector>

#include "core/value.hpp"
#include "gf/matrix.hpp"
#include "graph/digraph.hpp"
#include "sim/run_arena.hpp"
#include "util/rng.hpp"

namespace nab::core {

/// The coded payload sent on one edge during Equality Check: z_e coded
/// symbols, each `slices` GF(2^16) words (coded[k*slices + t] = slice t of
/// coded symbol k). Arena-backed: coded symbols are per-instance transcript
/// churn, copied into claim maps and replayed by dispute control.
struct coded_symbols {
  int count = 0;   // z_e
  int slices = 0;  // words per coded symbol
  sim::pooled_vector<word> words;

  bool operator==(const coded_symbols&) const = default;

  std::uint64_t bits() const { return static_cast<std::uint64_t>(count) * slices * 16; }
};

/// The per-edge coding matrices {C_e | e in E_k} of Algorithm 1.
///
/// C_e is a rho x z_e matrix over GF(2^16); entries are drawn independently
/// and uniformly at random (Theorem 1). The scheme is part of the algorithm
/// specification: every node derives the same matrices from the shared seed,
/// so no communication is spent distributing them.
///
/// The entries stay fixed for as long as the scheme lives, so an edge's
/// first encode with rows of at least gf2_16::dot_vector_words words builds
/// its entries' GF half tables (128 bytes per entry), and every later such
/// encode runs on them. That build makes encode mutate the scheme: one
/// scheme must not be encoded from two threads at once (a session's coding
/// is confined to the session's thread).
class coding_scheme {
 public:
  coding_scheme() = default;

  /// Generates matrices for every active edge of g.
  static coding_scheme generate(const graph::digraph& g, int rho, std::uint64_t seed);

  int rho() const { return rho_; }

  /// C_e for edge (u, v). Precondition: the edge existed at generation time.
  const gf::matrix<gf::gf2_16>& matrix_for(graph::node_id u, graph::node_id v) const;

  bool has_matrix(graph::node_id u, graph::node_id v) const;

  /// Y_e = X * C_e, applied slice-wise: coded symbol k, slice t equals
  /// sum_s X(s, t) * C_e(s, k). One gf2_16::dot per coded symbol, or rho
  /// axpy calls on rows shorter than dot's vectors.
  coded_symbols encode(const value_vector& x, graph::node_id u, graph::node_id v) const;

  /// Step 2 of Algorithm 1: does the received payload equal X * C_e?
  bool check(const value_vector& x, graph::node_id u, graph::node_id v,
             const coded_symbols& received) const;

 private:
  /// C_e and, once an encode has needed them, the half tables of its
  /// entries column by column: coded symbol k's rho tables sit at
  /// [k * rho, (k + 1) * rho).
  struct edge_code {
    gf::matrix<gf::gf2_16> matrix;
    mutable std::vector<gf::nibble_tables> tables;
  };

  int rho_ = 0;
  int universe_ = 0;
  std::vector<edge_code> edges_;  // dense [u*n+v]; empty matrix = no edge

  std::size_t index(graph::node_id u, graph::node_id v) const {
    return static_cast<std::size_t>(u) * universe_ + v;
  }
};

}  // namespace nab::core
