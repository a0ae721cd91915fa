#include "core/coding.hpp"

#include "util/assert.hpp"

namespace nab::core {

coding_scheme coding_scheme::generate(const graph::digraph& g, int rho,
                                      std::uint64_t seed) {
  NAB_ASSERT(rho > 0, "coding_scheme requires rho > 0");
  coding_scheme out;
  out.rho_ = rho;
  out.universe_ = g.universe();
  out.matrices_.resize(static_cast<std::size_t>(g.universe()) * g.universe());
  rng rand(seed);
  for (const graph::edge& e : g.edges()) {
    out.matrices_[out.index(e.from, e.to)] = gf::matrix<gf::gf2_16>::random(
        static_cast<std::size_t>(rho), static_cast<std::size_t>(e.cap), rand);
  }
  return out;
}

const gf::matrix<gf::gf2_16>& coding_scheme::matrix_for(graph::node_id u,
                                                        graph::node_id v) const {
  const auto& m = matrices_[index(u, v)];
  NAB_ASSERT(!m.empty(), "no coding matrix for this edge");
  return m;
}

bool coding_scheme::has_matrix(graph::node_id u, graph::node_id v) const {
  return u >= 0 && v >= 0 && u < universe_ && v < universe_ &&
         !matrices_[index(u, v)].empty();
}

coded_symbols coding_scheme::encode(const value_vector& x, graph::node_id u,
                                    graph::node_id v) const {
  const auto& ce = matrix_for(u, v);
  NAB_ASSERT(static_cast<int>(ce.rows()) == x.rho(),
             "value shape does not match coding matrix");
  coded_symbols out;
  out.count = static_cast<int>(ce.cols());
  out.slices = x.slices();
  out.words.assign(static_cast<std::size_t>(out.count) * out.slices, 0);
  // Coded symbol k is sum_s C_e(s, k) * symbol s; value storage is
  // symbol-major, so each term is one batched axpy over the slice run.
  const std::size_t slices = static_cast<std::size_t>(x.slices());
  const word* xw = x.words().data();
  for (int k = 0; k < out.count; ++k) {
    word* dst = out.words.data() + static_cast<std::size_t>(k) * slices;
    for (int s = 0; s < x.rho(); ++s)
      gf::gf2_16::axpy(dst, xw + static_cast<std::size_t>(s) * slices,
                       ce.at(static_cast<std::size_t>(s), static_cast<std::size_t>(k)),
                       slices);
  }
  return out;
}

bool coding_scheme::check(const value_vector& x, graph::node_id u, graph::node_id v,
                          const coded_symbols& received) const {
  return encode(x, u, v) == received;
}

}  // namespace nab::core
