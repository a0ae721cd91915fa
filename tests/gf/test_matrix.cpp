#include "gf/matrix.hpp"

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "gf/gf2m.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using m16 = matrix<gf2_16>;
using m8 = matrix<gf2m<8>>;

TEST(Matrix, ZeroConstruction) {
  m16 m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0);
}

TEST(Matrix, IdentityMultiplicationIsNeutral) {
  rng rand(1);
  const auto a = m16::random(5, 5, rand);
  EXPECT_EQ(a * m16::identity(5), a);
  EXPECT_EQ(m16::identity(5) * a, a);
}

TEST(Matrix, MultiplicationIsAssociative) {
  rng rand(2);
  const auto a = m16::random(3, 4, rand);
  const auto b = m16::random(4, 5, rand);
  const auto c = m16::random(5, 2, rand);
  EXPECT_EQ((a * b) * c, a * (b * c));
}

TEST(Matrix, MultiplicationDistributesOverAddition) {
  rng rand(3);
  const auto a = m16::random(3, 4, rand);
  const auto b = m16::random(4, 5, rand);
  const auto c = m16::random(4, 5, rand);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST(Matrix, TransposeReversesProduct) {
  rng rand(4);
  const auto a = m8::random(3, 4, rand);
  const auto b = m8::random(4, 5, rand);
  EXPECT_EQ((a * b).transpose(), b.transpose() * a.transpose());
}

TEST(Matrix, TransposeIsInvolution) {
  rng rand(5);
  const auto a = m16::random(4, 7, rand);
  EXPECT_EQ(a.transpose().transpose(), a);
}

TEST(Matrix, SelectColumnsPicksInOrder) {
  rng rand(7);
  const auto a = m16::random(2, 5, rand);
  const auto s = a.select_columns({4, 0, 2});
  EXPECT_EQ(s.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(s.at(r, 0), a.at(r, 4));
    EXPECT_EQ(s.at(r, 1), a.at(r, 0));
    EXPECT_EQ(s.at(r, 2), a.at(r, 2));
  }
}

TEST(Matrix, AdditionIsSelfInverseInCharacteristic2) {
  rng rand(8);
  const auto a = m16::random(4, 4, rand);
  const auto sum = a + a;
  EXPECT_EQ(sum, m16(4, 4));
}

}  // namespace
}  // namespace nab::gf
