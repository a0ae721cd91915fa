#pragma once

#include <cstddef>
#include <cstdint>

namespace nab::gf {

/// Row-kernel implementation backends for gf2_16::axpy / scale / dot.
/// `scalar` is the portable loop, the bit-exact reference and the only
/// backend off x86; the SIMD backends run the standard 4-bit half-table
/// multiply (GF-Complete / sparsenc's `multiply_add_region` trick) over the
/// two byte planes of each 16-bit word with x86 `pshufb` (SSSE3, widened on
/// AVX2). Every backend produces identical bytes and identical obs
/// counters; only throughput differs.
enum class gf_backend : int { scalar, ssse3, avx2 };

/// The 4-bit half tables of one coefficient c, what the SIMD kernels
/// multiply by c with: lo[k][v] and hi[k][v] are the low and high bytes of
/// (c * x^{4k}) * v, the product of c with nibble v at nibble position k of
/// a word. 128 bytes, 16-aligned so that no 16-byte plane load splits a
/// cache line. axpy and scale build them on every call; a caller that
/// multiplies by the same coefficients again and again
/// (core::coding_scheme) builds them once and hands them to dot.
struct alignas(16) nibble_tables {
  std::uint8_t lo[4][16];
  std::uint8_t hi[4][16];

  /// The tables of `coeff`.
  static nibble_tables of(std::uint16_t coeff);

  /// The coefficient itself: lo/hi[0][1] hold c * 1.
  std::uint16_t coeff() const {
    return static_cast<std::uint16_t>(lo[0][1] | hi[0][1] << 8);
  }
};

namespace detail {

/// Log/antilog tables for GF(2^16) (128 KiB + 256 KiB), computed at compile
/// time. exp is doubled (and padded) so mul can skip a modulo; the single
/// constinit instance lives in gf2_16.cpp, so table access is a plain load —
/// no initialization guard on any fast path.
struct gf2_16_tables {
  std::uint16_t log[65536];
  std::uint16_t exp[131072];
  bool primitive = false;

  constexpr gf2_16_tables() : log(), exp() {
    constexpr unsigned poly = 0x1100B;
    unsigned x = 1;
    for (unsigned i = 0; i < 65535; ++i) {
      exp[i] = static_cast<std::uint16_t>(x);
      exp[i + 65535] = static_cast<std::uint16_t>(x);
      log[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & 0x10000) x ^= poly;
    }
    primitive = x == 1;  // 0x1100B must be primitive over GF(2^16)
    log[0] = 0;
    exp[131070] = exp[65535];
    exp[131071] = exp[65536];
  }
};

extern const gf2_16_tables gf2_16_t;

}  // namespace detail

/// The finite field GF(2^16) with primitive polynomial
/// x^16 + x^12 + x^3 + x + 1 (0x1100B) and generator alpha = 2.
///
/// This is the default coefficient field for NAB's equality-check coding
/// matrices: the paper draws coefficients from GF(2^{L/rho}); we draw them
/// from GF(2^16) and apply them slice-wise to L/rho-bit symbols (the standard
/// random-linear-network-coding realization; core/value.hpp says why
/// Theorem 1 still holds).
///
/// Scalar ops are header-inline over compile-time tables; the row kernels
/// (axpy/scale/dot) additionally hoist the scalar's log lookup out of the
/// loop — Gaussian elimination in gf/linalg.hpp and the certifier in
/// core/certify.cpp run on axpy and scale, and core::coding_scheme::encode
/// on dot.
class gf2_16 {
 public:
  using value_type = std::uint16_t;

  static constexpr unsigned bits = 16;
  static constexpr std::uint64_t order = 65536;

  static constexpr value_type zero() { return 0; }
  static constexpr value_type one() { return 1; }

  static constexpr value_type add(value_type a, value_type b) {
    return static_cast<value_type>(a ^ b);
  }
  static constexpr value_type sub(value_type a, value_type b) { return add(a, b); }
  static constexpr value_type neg(value_type a) { return a; }

  static value_type mul(value_type a, value_type b) {
    if (a == 0 || b == 0) return 0;
    const auto& tab = detail::gf2_16_t;
    return tab.exp[static_cast<unsigned>(tab.log[a]) + tab.log[b]];
  }

  /// Multiplicative inverse. Precondition: a != 0.
  static value_type inv(value_type a);

  /// a / b. Precondition: b != 0.
  static value_type div(value_type a, value_type b);

  static value_type pow(value_type a, std::uint64_t e);

  /// dst[i] += coeff * src[i] for i in [0, n). The workhorse of row
  /// elimination; dispatches to the active backend (gf2_16_kernels.cpp).
  ///
  /// Counter contract: `gf_axpy_words` counts words PRESENTED (n per call,
  /// before the coeff == 0 early-out), not words multiplied — the SIMD
  /// paths branch on neither coeff nor the per-word s == 0 skip, and the
  /// deterministic-counter byte-identity contract (jobs-1-vs-N,
  /// pooled-vs-unpooled, scalar-vs-SIMD) requires one definition that every
  /// backend can report identically.
  static void axpy(value_type* dst, const value_type* src, value_type coeff,
                   std::size_t n);

  /// v[i] *= coeff for i in [0, n). Same words-presented counter contract
  /// as axpy (`gf_scale_words` counts n even for coeff 0 / 1).
  static void scale(value_type* v, value_type coeff, std::size_t n);

  /// dst[i] = sum_r c_r * src[r * stride + i] for i in [0, n), where
  /// tables[r] are the tables of c_r: one column of coefficients applied to
  /// `rows` source rows, each sum written to dst once. The caller builds
  /// the tables ahead of time, so the SIMD backends build nothing and run
  /// their vector loops on rows of any length from dot_vector_words up.
  /// dst must not overlap a source row.
  ///
  /// Counts rows * n to `gf_axpy_words`, before any early-out: the words
  /// the `rows` axpy calls it replaces would present.
  static void dot(value_type* dst, const value_type* src, std::size_t stride,
                  const nibble_tables* tables, std::size_t rows, std::size_t n);

  /// The narrowest vector dot steps by (128 bits). On rows shorter than
  /// this every backend reads a table for its coefficient alone, so `rows`
  /// axpy calls do the same work, with the same count, and need no tables.
  static constexpr std::size_t dot_vector_words = 8;

  /// The active row-kernel backend. Selected once on first kernel use:
  /// NAB_GF_BACKEND=scalar|ssse3|avx2 forces a backend (silently
  /// falling back to the best supported one when this CPU lacks it);
  /// unset/auto picks the widest supported instruction set.
  static gf_backend backend();

  /// Forces a backend at runtime (tests; the env override uses the same
  /// path). Returns false — leaving the active backend unchanged — when
  /// this build/CPU does not support `b`. Not safe to call concurrently
  /// with in-flight kernels; tests switch backends only between operations.
  static bool set_backend(gf_backend b);

  static const char* backend_name(gf_backend b);
};

}  // namespace nab::gf
