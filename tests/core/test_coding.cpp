#include "core/coding.hpp"

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

TEST(Coding, GenerationCoversEveryEdgeWithRightShape) {
  const graph::digraph g = graph::paper_fig2();
  const coding_scheme cs = coding_scheme::generate(g, 3, 42);
  for (const graph::edge& e : g.edges()) {
    ASSERT_TRUE(cs.has_matrix(e.from, e.to));
    const auto& m = cs.matrix_for(e.from, e.to);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), static_cast<std::size_t>(e.cap));
  }
  EXPECT_FALSE(cs.has_matrix(3, 0));
}

TEST(Coding, DeterministicInSeed) {
  const graph::digraph g = graph::complete(4, 2);
  const coding_scheme a = coding_scheme::generate(g, 2, 7);
  const coding_scheme b = coding_scheme::generate(g, 2, 7);
  const coding_scheme c = coding_scheme::generate(g, 2, 8);
  rng rand(1);
  const value_vector x = value_vector::random(2, 3, rand);
  EXPECT_EQ(a.encode(x, 0, 1), b.encode(x, 0, 1));
  EXPECT_FALSE(a.encode(x, 0, 1) == c.encode(x, 0, 1));
}

TEST(Coding, EncodeIsLinearPerSlice) {
  const graph::digraph g = graph::complete(3, 3);
  const coding_scheme cs = coding_scheme::generate(g, 4, 11);
  rng rand(2);
  const value_vector x = value_vector::random(4, 2, rand);
  const value_vector y = value_vector::random(4, 2, rand);
  value_vector sum(4, 2);
  for (int s = 0; s < 4; ++s)
    for (int t = 0; t < 2; ++t)
      sum.set_symbol(s, t, gf::gf2_16::add(x.symbol(s, t), y.symbol(s, t)));
  const coded_symbols ex = cs.encode(x, 0, 1);
  const coded_symbols ey = cs.encode(y, 0, 1);
  const coded_symbols esum = cs.encode(sum, 0, 1);
  ASSERT_EQ(ex.words.size(), esum.words.size());
  for (std::size_t i = 0; i < ex.words.size(); ++i)
    EXPECT_EQ(esum.words[i], gf::gf2_16::add(ex.words[i], ey.words[i]));
}

TEST(Coding, CheckAcceptsOwnEncoding) {
  const graph::digraph g = graph::complete(4);
  const coding_scheme cs = coding_scheme::generate(g, 2, 3);
  rng rand(3);
  for (int trial = 0; trial < 10; ++trial) {
    const value_vector x = value_vector::random(2, 4, rand);
    EXPECT_TRUE(cs.check(x, 0, 1, cs.encode(x, 0, 1)));
  }
}

TEST(Coding, CheckRejectsDifferentValueWithHighProbability) {
  // A mismatching pair passes only if (X - X') C_e = 0; for random C_e over
  // GF(2^16) that's ~2^-16 per coded symbol. 200 trials must all detect.
  const graph::digraph g = graph::complete(4);
  const coding_scheme cs = coding_scheme::generate(g, 2, 5);
  rng rand(4);
  for (int trial = 0; trial < 200; ++trial) {
    const value_vector x = value_vector::random(2, 4, rand);
    value_vector y = x;
    y.set_symbol(static_cast<int>(rand.below(2)), static_cast<int>(rand.below(4)),
                 static_cast<word>(y.symbol(0, 0) ^ (1 + rand.below(65535))));
    EXPECT_FALSE(cs.check(y, 0, 1, cs.encode(x, 0, 1))) << "trial " << trial;
  }
}

TEST(Coding, EncodeMatchesMatrixProduct) {
  // encode runs one fused GF dot per coded symbol on precomputed tables;
  // on every backend it must equal the plain product X * C_e, entry by
  // entry, here with z_e = 2 and slice counts off the 8- and 16-word SIMD
  // strides.
  const graph::digraph g = graph::complete(4, 2);
  const int rho = 5;
  const coding_scheme cs = coding_scheme::generate(g, rho, 13);
  const gf::gf_backend initial = gf::gf2_16::backend();
  for (gf::gf_backend b :
       {gf::gf_backend::scalar, gf::gf_backend::ssse3, gf::gf_backend::avx2}) {
    if (!gf::gf2_16::set_backend(b)) continue;
    rng rand(9);
    for (int slices : {1, 7, 37, 133}) {
      const value_vector x = value_vector::random(rho, slices, rand);
      for (const graph::edge& e : g.edges()) {
        const auto& ce = cs.matrix_for(e.from, e.to);
        const coded_symbols y = cs.encode(x, e.from, e.to);
        ASSERT_EQ(y.count, 2);
        ASSERT_EQ(y.slices, slices);
        for (int k = 0; k < y.count; ++k)
          for (int t = 0; t < slices; ++t) {
            word expect = 0;
            for (int s = 0; s < rho; ++s)
              expect = gf::gf2_16::add(
                  expect, gf::gf2_16::mul(x.symbol(s, t),
                                          ce.at(static_cast<std::size_t>(s),
                                                static_cast<std::size_t>(k))));
            EXPECT_EQ(y.words[static_cast<std::size_t>(k * slices + t)], expect)
                << gf::gf2_16::backend_name(b) << " edge " << e.from << "->" << e.to
                << " slices=" << slices << " k=" << k << " t=" << t;
          }
      }
    }
  }
  gf::gf2_16::set_backend(initial);
}

TEST(Coding, WireSizeMatchesPaperFormula) {
  // Edge of capacity z_e carries z_e symbols of L/rho bits: bits() must be
  // z_e * slices * 16 = z_e * (L / rho).
  const graph::digraph g = graph::paper_fig2();  // (0,1) has capacity 2
  const int rho = 2, slices = 8;                 // L = rho*slices*16 = 256 bits
  const coding_scheme cs = coding_scheme::generate(g, rho, 1);
  rng rand(7);
  const value_vector x = value_vector::random(rho, slices, rand);
  EXPECT_EQ(cs.encode(x, 0, 1).bits(), 2u * (x.bits() / rho));
}

}  // namespace
}  // namespace nab::core
