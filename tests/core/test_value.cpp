#include "core/value.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace nab::core {
namespace {

TEST(ValueVector, ZeroShape) {
  value_vector v(3, 2);
  EXPECT_EQ(v.rho(), 3);
  EXPECT_EQ(v.slices(), 2);
  EXPECT_EQ(v.bits(), 96u);
  for (int s = 0; s < 3; ++s)
    for (int t = 0; t < 2; ++t) EXPECT_EQ(v.symbol(s, t), 0);
}

TEST(ValueVector, ReshapeLaysOutSymbolMajor) {
  const std::vector<word> ws{1, 2, 3, 4, 5, 6};
  const value_vector v = value_vector::reshape(ws, 3);
  EXPECT_EQ(v.slices(), 2);
  EXPECT_EQ(v.symbol(0, 0), 1);
  EXPECT_EQ(v.symbol(0, 1), 2);
  EXPECT_EQ(v.symbol(1, 0), 3);
  EXPECT_EQ(v.symbol(2, 1), 6);
}

TEST(ValueVector, ReshapePadsWithZeros) {
  const std::vector<word> ws{9, 8, 7};
  const value_vector v = value_vector::reshape(ws, 2);
  EXPECT_EQ(v.slices(), 2);
  EXPECT_EQ(v.symbol(0, 0), 9);
  EXPECT_EQ(v.symbol(0, 1), 8);
  EXPECT_EQ(v.symbol(1, 0), 7);
  EXPECT_EQ(v.symbol(1, 1), 0);
}

TEST(ValueVector, SymbolWordsSlice) {
  const std::vector<word> ws{1, 2, 3, 4};
  const value_vector v = value_vector::reshape(ws, 2);
  EXPECT_EQ(v.symbol_words(0), (std::vector<word>{1, 2}));
  EXPECT_EQ(v.symbol_words(1), (std::vector<word>{3, 4}));
}

TEST(ValueVector, SetSymbolMutates) {
  value_vector v(2, 2);
  v.set_symbol(1, 0, 0xBEEF);
  EXPECT_EQ(v.symbol(1, 0), 0xBEEF);
  EXPECT_EQ(v.words()[2], 0xBEEF);
}

}  // namespace
}  // namespace nab::core
