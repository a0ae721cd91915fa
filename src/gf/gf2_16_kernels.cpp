// Row-kernel backends for gf2_16::axpy / scale / dot.
//
// The SIMD paths implement the classic 4-bit half-table region multiply
// (GF-Complete / sparsenc lineage): for a fixed coefficient c, split every
// source word s into its four nibbles, so
//
//   c * s = sum_k (c * x^{4k}) * nib_k(s)        (k = 0..3, GF(2^16))
//
// and each term is a 16-entry table lookup T_k[nib] = (c * x^{4k}) * nib.
// Storing T_k as separate low-byte / high-byte planes turns the lookup into
// one byte shuffle per plane: on u16 lanes, (s >> 4k) & 0x000f leaves the
// nibble in the even byte and 0 in the odd byte, and T_k[0] = 0 maps the odd
// bytes to 0, so no lane repacking (ALTMAP) is needed. Eight shuffles per
// 128-bit vector of eight words; AVX2 doubles the width. Each instruction
// set writes that multiply once (mul_add_ssse3, mul_add_avx2), and axpy,
// scale and dot are loops around it. dot keeps the two planes' sums over all
// its rows apart and joins them once per vector.
//
// Backend selection happens once, on first kernel use: NAB_GF_BACKEND
// forces a backend by name (falling back to the best supported one when the
// CPU lacks it), otherwise the widest supported set wins; other
// architectures run the scalar loop. Every backend is
// bit-exact against the scalar loop — the cross-check suite in
// tests/gf/test_gf2_16_kernels.cpp pins that, including unaligned pointers,
// 0..31 tails, aliased scales, and dot over 1..13 rows.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define NAB_GF_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace nab::gf {

namespace {

using word = gf2_16::value_type;

// --- scalar reference kernels -----------------------------------------------
// The s == 0 skip is a correctness requirement, not an optimization: log[0]
// is a sentinel and exp[lc + log[0]] would be garbage.

void axpy_scalar(word* dst, const word* src, word coeff, std::size_t n) {
  const auto& tab = detail::gf2_16_t;
  const unsigned lc = tab.log[coeff];
  // Unrolled so short rows stay fast wherever the linker places this loop.
#pragma GCC unroll 4
  for (std::size_t i = 0; i < n; ++i) {
    const word s = src[i];
    if (s == 0) continue;
    dst[i] = static_cast<word>(dst[i] ^ tab.exp[lc + tab.log[s]]);
  }
}

void scale_scalar(word* v, word coeff, std::size_t n) {
  const auto& tab = detail::gf2_16_t;
  const unsigned lc = tab.log[coeff];
#pragma GCC unroll 4  // as in axpy_scalar
  for (std::size_t i = 0; i < n; ++i) {
    const word s = v[i];
    if (s == 0) continue;
    v[i] = tab.exp[lc + tab.log[s]];
  }
}

// --- 4-bit half tables ------------------------------------------------------

// Fills `t` in place. axpy and scale build into a local on every call, and
// the certifier runs one axpy per reduced row: returning the tables by value
// instead compiles to a build about 10% slower.
void build_tables(word coeff, nibble_tables& t) {
  for (int k = 0; k < 4; ++k) {
    // x^{4k} as a field element is just the monomial 1 << 4k (4k < 16, so
    // no reduction), making T_k[v] = (coeff * x^{4k}) * v.
    const word fk = gf2_16::mul(coeff, static_cast<word>(1u << (4 * k)));
    for (int v = 0; v < 16; ++v) {
      const word p = gf2_16::mul(fk, static_cast<word>(v));
      t.lo[k][v] = static_cast<std::uint8_t>(p & 0xff);
      t.hi[k][v] = static_cast<std::uint8_t>(p >> 8);
    }
  }
}

/// dot's reference: zero dst, then one axpy per nonzero coefficient.
void dot_scalar(word* dst, const word* src, std::size_t stride,
                const nibble_tables* tables, std::size_t rows, std::size_t n) {
  std::memset(dst, 0, n * sizeof(word));
  for (std::size_t r = 0; r < rows; ++r)
    if (const word c = tables[r].coeff(); c != 0)
      axpy_scalar(dst, src + r * stride, c, n);
}

// The per-call half-table build in axpy and scale (64 scalar muls, ~50 ns)
// only amortizes on long rows; measured crossover vs the scalar loop sits
// near 90–140 words on both SSSE3 and AVX2, so those kernels hand shorter
// rows straight back to the scalar loop. dot's tables come prebuilt, so it
// has no such cutoff.
constexpr std::size_t simd_min_words = 128;

#if NAB_GF_KERNELS_X86

// A table plane as the multiplies read it: axpy and scale load their
// coefficient's eight planes into registers once per call, dot reads each
// row's from its nibble_tables where the shuffle uses it. Eight table
// registers per row leave no room to hold several rows' planes, and a
// column's tables (rows * 128 bytes) stay in L1; copying a row's planes into
// locals before its multiply made dot about 50% slower at AVX2 and 20% at
// SSSE3.

__attribute__((target("ssse3"), always_inline)) inline __m128i plane_ssse3(__m128i p) {
  return p;
}

__attribute__((target("ssse3"), always_inline)) inline __m128i plane_ssse3(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("avx2"), always_inline)) inline __m256i plane_avx2(__m256i p) {
  return p;
}

__attribute__((target("avx2"), always_inline)) inline __m256i plane_avx2(
    const std::uint8_t* p) {
  return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// lo ^= the low bytes and hi ^= the high bytes of c * s, for the eight
/// words of s, where tlo and thi hold c's four low and four high planes:
/// registers, or the lo and hi arrays of c's nibble_tables.
template <class Planes>
__attribute__((target("ssse3"), always_inline)) inline void mul_add_ssse3(
    __m128i s, const Planes& tlo, const Planes& thi, __m128i& lo, __m128i& hi) {
  const __m128i mask = _mm_set1_epi16(0x000f);
  __m128i idx = _mm_and_si128(s, mask);
  lo = _mm_xor_si128(lo, _mm_shuffle_epi8(plane_ssse3(tlo[0]), idx));
  hi = _mm_xor_si128(hi, _mm_shuffle_epi8(plane_ssse3(thi[0]), idx));
  idx = _mm_and_si128(_mm_srli_epi16(s, 4), mask);
  lo = _mm_xor_si128(lo, _mm_shuffle_epi8(plane_ssse3(tlo[1]), idx));
  hi = _mm_xor_si128(hi, _mm_shuffle_epi8(plane_ssse3(thi[1]), idx));
  idx = _mm_and_si128(_mm_srli_epi16(s, 8), mask);
  lo = _mm_xor_si128(lo, _mm_shuffle_epi8(plane_ssse3(tlo[2]), idx));
  hi = _mm_xor_si128(hi, _mm_shuffle_epi8(plane_ssse3(thi[2]), idx));
  idx = _mm_srli_epi16(s, 12);  // high byte already 0
  lo = _mm_xor_si128(lo, _mm_shuffle_epi8(plane_ssse3(tlo[3]), idx));
  hi = _mm_xor_si128(hi, _mm_shuffle_epi8(plane_ssse3(thi[3]), idx));
}

/// mul_add_ssse3 on sixteen words.
template <class Planes>
__attribute__((target("avx2"), always_inline)) inline void mul_add_avx2(
    __m256i s, const Planes& tlo, const Planes& thi, __m256i& lo, __m256i& hi) {
  const __m256i mask = _mm256_set1_epi16(0x000f);
  __m256i idx = _mm256_and_si256(s, mask);
  lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(plane_avx2(tlo[0]), idx));
  hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(plane_avx2(thi[0]), idx));
  idx = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
  lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(plane_avx2(tlo[1]), idx));
  hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(plane_avx2(thi[1]), idx));
  idx = _mm256_and_si256(_mm256_srli_epi16(s, 8), mask);
  lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(plane_avx2(tlo[2]), idx));
  hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(plane_avx2(thi[2]), idx));
  idx = _mm256_srli_epi16(s, 12);
  lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(plane_avx2(tlo[3]), idx));
  hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(plane_avx2(thi[3]), idx));
}

/// The words whose low and high byte planes are lo and hi.
__attribute__((target("ssse3"), always_inline)) inline __m128i join_ssse3(__m128i lo,
                                                                          __m128i hi) {
  return _mm_xor_si128(lo, _mm_slli_epi16(hi, 8));
}

__attribute__((target("avx2"), always_inline)) inline __m256i join_avx2(__m256i lo,
                                                                        __m256i hi) {
  return _mm256_xor_si256(lo, _mm256_slli_epi16(hi, 8));
}

// aligned(64): each hot kernel starts a cache line wherever unrelated edits
// move the code around it, so their speed does not vary with link layout.
__attribute__((target("ssse3"), aligned(64))) void axpy_ssse3(word* dst,
                                                              const word* src,
                                                              word coeff, std::size_t n) {
  if (n < simd_min_words) { axpy_scalar(dst, src, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m128i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = plane_ssse3(t.lo[k]);
    thi[k] = plane_ssse3(t.hi[k]);
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();
    mul_add_ssse3(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)), tlo, thi, lo,
                  hi);
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, join_ssse3(lo, hi)));
  }
  if (i < n) axpy_scalar(dst + i, src + i, coeff, n - i);
}

__attribute__((target("ssse3"), aligned(64))) void scale_ssse3(word* v, word coeff,
                                                               std::size_t n) {
  if (n < simd_min_words) { scale_scalar(v, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m128i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = plane_ssse3(t.lo[k]);
    thi[k] = plane_ssse3(t.hi[k]);
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();
    mul_add_ssse3(_mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)), tlo, thi, lo, hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(v + i), join_ssse3(lo, hi));
  }
  if (i < n) scale_scalar(v + i, coeff, n - i);
}

__attribute__((target("avx2"), aligned(64))) void axpy_avx2(word* dst, const word* src,
                                                            word coeff, std::size_t n) {
  if (n < simd_min_words) { axpy_scalar(dst, src, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m256i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = plane_avx2(t.lo[k]);
    thi[k] = plane_avx2(t.hi[k]);
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
    mul_add_avx2(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)), tlo, thi,
                 lo, hi);
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, join_avx2(lo, hi)));
  }
  if (i < n) axpy_ssse3(dst + i, src + i, coeff, n - i);
}

__attribute__((target("avx2"), aligned(64))) void scale_avx2(word* v, word coeff,
                                                             std::size_t n) {
  if (n < simd_min_words) { scale_scalar(v, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m256i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = plane_avx2(t.lo[k]);
    thi[k] = plane_avx2(t.hi[k]);
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
    mul_add_avx2(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), tlo, thi, lo,
                 hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), join_avx2(lo, hi));
  }
  if (i < n) scale_ssse3(v + i, coeff, n - i);
}

__attribute__((target("ssse3"), aligned(64))) void dot_ssse3(
    word* dst, const word* src, std::size_t stride, const nibble_tables* tables,
    std::size_t rows, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();
    for (std::size_t r = 0; r < rows; ++r)
      mul_add_ssse3(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + r * stride + i)),
                    tables[r].lo, tables[r].hi, lo, hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), join_ssse3(lo, hi));
  }
  if (i < n) dot_scalar(dst + i, src + i, stride, tables, rows, n - i);
}

__attribute__((target("avx2"), aligned(64))) void dot_avx2(
    word* dst, const word* src, std::size_t stride, const nibble_tables* tables,
    std::size_t rows, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
    for (std::size_t r = 0; r < rows; ++r)
      mul_add_avx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + r * stride + i)),
          tables[r].lo, tables[r].hi, lo, hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), join_avx2(lo, hi));
  }
  if (i < n) dot_ssse3(dst + i, src + i, stride, tables, rows, n - i);
}

#endif  // NAB_GF_KERNELS_X86

// --- backend selection ------------------------------------------------------

struct kernels {
  gf_backend id;
  void (*axpy)(word*, const word*, word, std::size_t);
  void (*scale)(word*, word, std::size_t);
  void (*dot)(word*, const word*, std::size_t, const nibble_tables*, std::size_t,
              std::size_t);
};

constexpr kernels k_scalar{gf_backend::scalar, axpy_scalar, scale_scalar, dot_scalar};
#if NAB_GF_KERNELS_X86
constexpr kernels k_ssse3{gf_backend::ssse3, axpy_ssse3, scale_ssse3, dot_ssse3};
constexpr kernels k_avx2{gf_backend::avx2, axpy_avx2, scale_avx2, dot_avx2};
#endif

/// The vtable for `b`, or nullptr when this build/CPU cannot run it.
const kernels* kernels_for(gf_backend b) {
  switch (b) {
    case gf_backend::scalar:
      return &k_scalar;
    case gf_backend::ssse3:
#if NAB_GF_KERNELS_X86
      if (__builtin_cpu_supports("ssse3")) return &k_ssse3;
#endif
      return nullptr;
    case gf_backend::avx2:
#if NAB_GF_KERNELS_X86
      if (__builtin_cpu_supports("avx2")) return &k_avx2;
#endif
      return nullptr;
  }
  return nullptr;
}

const kernels* best_supported() {
#if NAB_GF_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return &k_avx2;
  if (__builtin_cpu_supports("ssse3")) return &k_ssse3;
#endif
  return &k_scalar;
}

const kernels* select_from_env() {
  const char* env = std::getenv("NAB_GF_BACKEND");
  if (env != nullptr) {
    const std::string_view v(env);
    const kernels* forced = nullptr;
    if (v == "scalar") forced = kernels_for(gf_backend::scalar);
    else if (v == "ssse3") forced = kernels_for(gf_backend::ssse3);
    else if (v == "avx2") forced = kernels_for(gf_backend::avx2);
    // Unknown names, "auto", and backends this CPU lacks all fall back to
    // auto-detection — a CI matrix leg may name a set the runner is missing.
    if (forced != nullptr) return forced;
  }
  return best_supported();
}

std::atomic<const kernels*> g_kernels{nullptr};

const kernels* active() {
  const kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k != nullptr) return k;
  // Racing first calls compute the same answer from the same environment;
  // whichever store lands last is equivalent.
  k = select_from_env();
  g_kernels.store(k, std::memory_order_release);
  return k;
}

}  // namespace

nibble_tables nibble_tables::of(std::uint16_t coeff) {
  nibble_tables t;
  build_tables(coeff, t);
  return t;
}

gf_backend gf2_16::backend() { return active()->id; }

bool gf2_16::set_backend(gf_backend b) {
  const kernels* k = kernels_for(b);
  if (k == nullptr) return false;
  g_kernels.store(k, std::memory_order_release);
  return true;
}

const char* gf2_16::backend_name(gf_backend b) {
  switch (b) {
    case gf_backend::scalar: return "scalar";
    case gf_backend::ssse3: return "ssse3";
    case gf_backend::avx2: return "avx2";
  }
  return "unknown";
}

void gf2_16::axpy(value_type* dst, const value_type* src, value_type coeff,
                  std::size_t n) {
  // Words presented, counted before every early-out (see the header
  // contract) and per call, never per element — the ambient-collector check
  // must stay out of the word loop on this hot path.
  obs::count(obs::counter::gf_axpy_words, n);
  if (coeff == 0 || n == 0) return;
  active()->axpy(dst, src, coeff, n);
}

void gf2_16::scale(value_type* v, value_type coeff, std::size_t n) {
  obs::count(obs::counter::gf_scale_words, n);
  if (coeff == 1 || n == 0) return;
  if (coeff == 0) {
    std::memset(v, 0, n * sizeof(value_type));
    return;
  }
  active()->scale(v, coeff, n);
}

void gf2_16::dot(value_type* dst, const value_type* src, std::size_t stride,
                 const nibble_tables* tables, std::size_t rows, std::size_t n) {
  obs::count(obs::counter::gf_axpy_words, rows * n);
  if (n == 0) return;
  active()->dot(dst, src, stride, tables, rows, n);
}

}  // namespace nab::gf
