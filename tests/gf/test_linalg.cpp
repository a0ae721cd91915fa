#include "gf/linalg.hpp"

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using m16 = matrix<gf2_16>;

TEST(Linalg, RankOfIdentity) {
  EXPECT_EQ(rank(m16::identity(6)), 6u);
}

TEST(Linalg, RankOfZeroMatrix) {
  EXPECT_EQ(rank(m16(4, 7)), 0u);
}

TEST(Linalg, RankDropsWithDuplicateRow) {
  rng rand(1);
  auto a = m16::random(4, 6, rand);
  // Force row 3 = row 1.
  for (std::size_t c = 0; c < 6; ++c) a.at(3, c) = a.at(1, c);
  EXPECT_LE(rank(a), 3u);
}

TEST(Linalg, RandomSquareMatrixIsAlmostSurelyInvertible) {
  // Probability of singularity for a random k x k matrix over GF(2^16) is
  // ~ k / 2^16 — the same estimate Theorem 1 builds on.
  rng rand(2);
  int invertible_count = 0;
  for (int trial = 0; trial < 50; ++trial) {
    if (rank(m16::random(8, 8, rand)) == 8) ++invertible_count;
  }
  EXPECT_GE(invertible_count, 49);
}

TEST(Linalg, RowReduceReportsPivots) {
  auto a = m16::identity(3);
  std::vector<std::size_t> pivots;
  EXPECT_EQ(row_reduce(a, &pivots), 3u);
  EXPECT_EQ(pivots, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Linalg, RankIsInvariantUnderTranspose) {
  rng rand(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = m16::random(4, 9, rand);
    EXPECT_EQ(rank(a), rank(a.transpose()));
  }
}

}  // namespace
}  // namespace nab::gf
