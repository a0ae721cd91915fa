#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace nab::gf {

/// Default primitive polynomials (low bits; the x^M term is implicit) for
/// gf2m<M>. Entry i is for M = i; 0 marks unsupported widths.
inline constexpr std::uint64_t default_poly[33] = {
    0,      0,      0x3,    0x3,    0x3,    0x5,    0x3,    0x3,   0x1D,
    0x11,   0x9,    0x5,    0x53,   0x1B,   0x2B,   0x3,    0x100B /* x^12+x^3+x+1 */,
    0x9,    0x81,   0x27,   0x9,    0x5,    0x3,    0x21,   0x1B,
    0x9,    0x47,   0x27,   0x9,    0x5,    0x53,   0x9,    0xAF};

/// Generic binary extension field GF(2^M) for 2 <= M <= 32.
///
/// Multiplication is shift-and-add with per-step reduction by a primitive
/// polynomial; inversion uses Fermat's little theorem (a^(2^M - 2)).
/// Slower than the table-driven gf2_16, but supports every width the
/// Theorem-1 miss-rate test (tests/paper) needs — the miss probability of
/// the equality check scales as 2^-M, so small M makes misses observable.
template <unsigned M>
class gf2m {
  static_assert(M >= 2 && M <= 32, "gf2m supports 2 <= M <= 32");
  static_assert(default_poly[M] != 0, "no default polynomial for this width");

 public:
  using value_type = std::uint32_t;

  static constexpr unsigned bits = M;
  static constexpr std::uint64_t order = std::uint64_t{1} << M;
  static constexpr value_type mask = static_cast<value_type>(order - 1);

  static constexpr value_type zero() { return 0; }
  static constexpr value_type one() { return 1; }

  static constexpr value_type add(value_type a, value_type b) { return (a ^ b) & mask; }
  static constexpr value_type sub(value_type a, value_type b) { return add(a, b); }
  static constexpr value_type neg(value_type a) { return a & mask; }

  static constexpr value_type mul(value_type a, value_type b) {
    std::uint64_t acc = 0;
    std::uint64_t aa = a & mask;
    std::uint64_t bb = b & mask;
    while (bb != 0) {
      if (bb & 1) acc ^= aa;
      bb >>= 1;
      aa <<= 1;
      if (aa & order) aa ^= (default_poly[M] | order);
    }
    return static_cast<value_type>(acc & mask);
  }

  static constexpr value_type pow(value_type a, std::uint64_t e) {
    value_type base = a & mask;
    value_type result = 1;
    while (e != 0) {
      if (e & 1) result = mul(result, base);
      base = mul(base, base);
      e >>= 1;
    }
    return result;
  }

  /// Multiplicative inverse via a^(2^M - 2). Precondition: a != 0.
  static value_type inv(value_type a) {
    NAB_ASSERT((a & mask) != 0, "gf2m::inv of zero");
    return pow(a, order - 2);
  }

  /// a / b. Precondition: b != 0.
  static value_type div(value_type a, value_type b) { return mul(a, inv(b)); }
};

}  // namespace nab::gf
