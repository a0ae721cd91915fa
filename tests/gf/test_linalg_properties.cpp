// Parameterized linear-algebra properties across matrix sizes over GF(2^16):
// the identities Gaussian elimination must satisfy, which the Theorem-1
// certification (rank of C_H) silently relies on.

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "gf/linalg.hpp"
#include "gf/matrix.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

struct la_param {
  std::size_t n;
  std::uint64_t seed;
};

class LinalgProperty : public ::testing::TestWithParam<la_param> {};

TEST_P(LinalgProperty, RankBoundsAndProductRank) {
  const auto [n, seed] = GetParam();
  rng rand(seed);
  const auto a = matrix<gf2_16>::random(n, n + 2, rand);
  const auto b = matrix<gf2_16>::random(n + 2, n, rand);
  const std::size_t ra = rank(a);
  const std::size_t rb = rank(b);
  EXPECT_LE(ra, n);
  EXPECT_LE(rb, n);
  EXPECT_LE(rank(a * b), std::min(ra, rb));
}

TEST_P(LinalgProperty, RankRowColumnSymmetry) {
  const auto [n, seed] = GetParam();
  rng rand(seed ^ 0x2);
  auto a = matrix<gf2_16>::random(n, 2 * n, rand);
  // Zero a couple of rows to force deficiency.
  for (std::size_t c = 0; c < a.cols(); ++c) a.at(0, c) = 0;
  EXPECT_EQ(rank(a), rank(a.transpose()));
  EXPECT_LE(rank(a), n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LinalgProperty,
    ::testing::Values(la_param{2, 1}, la_param{3, 2}, la_param{4, 3}, la_param{5, 4},
                      la_param{8, 5}, la_param{12, 6}, la_param{16, 7},
                      la_param{24, 8}),
    [](const ::testing::TestParamInfo<la_param>& info) {
      return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace nab::gf
