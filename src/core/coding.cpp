#include "core/coding.hpp"

#include "util/assert.hpp"

namespace nab::core {

coding_scheme coding_scheme::generate(const graph::digraph& g, int rho,
                                      std::uint64_t seed) {
  NAB_ASSERT(rho > 0, "coding_scheme requires rho > 0");
  coding_scheme out;
  out.rho_ = rho;
  out.universe_ = g.universe();
  out.edges_.resize(static_cast<std::size_t>(g.universe()) * g.universe());
  rng rand(seed);
  for (const graph::edge& e : g.edges()) {
    out.edges_[out.index(e.from, e.to)].matrix = gf::matrix<gf::gf2_16>::random(
        static_cast<std::size_t>(rho), static_cast<std::size_t>(e.cap), rand);
  }
  return out;
}

const gf::matrix<gf::gf2_16>& coding_scheme::matrix_for(graph::node_id u,
                                                        graph::node_id v) const {
  const auto& m = edges_[index(u, v)].matrix;
  NAB_ASSERT(!m.empty(), "no coding matrix for this edge");
  return m;
}

bool coding_scheme::has_matrix(graph::node_id u, graph::node_id v) const {
  return u >= 0 && v >= 0 && u < universe_ && v < universe_ &&
         !edges_[index(u, v)].matrix.empty();
}

coded_symbols coding_scheme::encode(const value_vector& x, graph::node_id u,
                                    graph::node_id v) const {
  const auto& ce = matrix_for(u, v);
  const edge_code& code = edges_[index(u, v)];
  NAB_ASSERT(static_cast<int>(ce.rows()) == x.rho(),
             "value shape does not match coding matrix");
  coded_symbols out;
  out.count = static_cast<int>(ce.cols());
  out.slices = x.slices();
  out.words.resize(static_cast<std::size_t>(out.count) * out.slices);
  // Coded symbol k is sum_s C_e(s, k) * symbol s; value storage is
  // symbol-major, so the symbols are rho rows `slices` words apart.
  const std::size_t rho = ce.rows();
  const std::size_t slices = static_cast<std::size_t>(x.slices());
  const word* src = x.words().data();
  if (slices < gf::gf2_16::dot_vector_words) {
    // dot would read each table for its coefficient alone: take it from
    // C_e and build no tables (out.words starts zeroed).
    for (std::size_t k = 0; k < ce.cols(); ++k)
      for (std::size_t s = 0; s < rho; ++s)
        gf::gf2_16::axpy(out.words.data() + k * slices, src + s * slices, ce.at(s, k),
                         slices);
    return out;
  }
  if (code.tables.empty()) {
    code.tables.reserve(rho * ce.cols());
    for (std::size_t k = 0; k < ce.cols(); ++k)
      for (std::size_t s = 0; s < rho; ++s)
        code.tables.push_back(gf::nibble_tables::of(ce.at(s, k)));
  }
  for (std::size_t k = 0; k < ce.cols(); ++k)
    gf::gf2_16::dot(out.words.data() + k * slices, src, slices,
                    code.tables.data() + k * rho, rho, slices);
  return out;
}

bool coding_scheme::check(const value_vector& x, graph::node_id u, graph::node_id v,
                          const coded_symbols& received) const {
  return encode(x, u, v) == received;
}

}  // namespace nab::core
