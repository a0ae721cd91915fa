#pragma once

#include <cstdint>
#include <vector>

#include "gf/gf2_16.hpp"
#include "sim/run_arena.hpp"
#include "util/rng.hpp"

namespace nab::core {

/// A 16-bit wire word — the base unit of every NAB payload.
using word = gf::gf2_16::value_type;

/// An L-bit broadcast value, stored as 16-bit words and *reshaped* per NAB
/// instance into rho symbols of `slices` words each (L = rho * slices * 16).
///
/// The paper represents the value as rho symbols from GF(2^{L/rho}); we
/// realize each symbol as a vector of GF(2^16) slices and apply coding
/// coefficients slice-wise. Each slice position is then its own equality
/// check over GF(2^16), and values differ iff some slice does, so Theorem 1
/// holds with field size 2^16 (theorem1_failure_bound). Symbol s consists of
/// words [s*slices, (s+1)*slices).
///
/// Arena-backed: the values an instance reshapes for its equality check are
/// per-instance churn, drawn from the run arena like the coded symbols.
class value_vector {
 public:
  value_vector() = default;

  /// Zero value of the given shape.
  value_vector(int rho, int slices);

  /// Reshape `words` into rho symbols, zero-padding to a whole number of
  /// slices per symbol.
  static value_vector reshape(const std::vector<word>& words, int rho);

  /// Uniformly random value of the given shape.
  static value_vector random(int rho, int slices, rng& rand);

  int rho() const { return rho_; }
  int slices() const { return slices_; }

  /// L in bits (after padding).
  std::uint64_t bits() const { return static_cast<std::uint64_t>(rho_) * slices_ * 16; }

  word symbol(int s, int slice) const;
  void set_symbol(int s, int slice, word v);

  /// All words of symbol s.
  std::vector<word> symbol_words(int s) const;

  const sim::pooled_vector<word>& words() const { return words_; }

  bool operator==(const value_vector&) const = default;

 private:
  int rho_ = 0;
  int slices_ = 0;
  sim::pooled_vector<word> words_;  // rho_ * slices_, symbol-major
};

}  // namespace nab::core
