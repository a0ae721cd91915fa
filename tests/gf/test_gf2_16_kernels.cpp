// Scalar-vs-SIMD cross-check suite for the gf2_16 row-kernel backends.
//
// Every backend must produce byte-identical results AND byte-identical obs
// counters for any (pointer alignment, tail length, coefficient) — the
// deterministic-counter contract (jobs-1-vs-N, pooled-vs-unpooled) extends
// across kernel backends, so a SIMD path that counted words differently
// from the scalar loop would break BENCH byte-stability the moment two
// machines pick different backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using word = gf2_16::value_type;

std::vector<gf_backend> supported_backends() {
  const gf_backend initial = gf2_16::backend();
  std::vector<gf_backend> out;
  for (gf_backend b : {gf_backend::scalar, gf_backend::ssse3, gf_backend::avx2})
    if (gf2_16::set_backend(b)) out.push_back(b);
  gf2_16::set_backend(initial);
  return out;
}

/// RAII: force a backend for one scope, restore the previous one after.
class backend_scope {
 public:
  explicit backend_scope(gf_backend b) : prev_(gf2_16::backend()) {
    EXPECT_TRUE(gf2_16::set_backend(b));
  }
  ~backend_scope() { gf2_16::set_backend(prev_); }

 private:
  gf_backend prev_;
};

word ref_mul(word a, word b) { return gf2_16::mul(a, b); }

/// 0..31 covers the short-row shunt (axpy and scale hand rows below the
/// table-build amortization cutoff back to the scalar loop; dot, with no
/// cutoff, runs its vector body and scalar tail on them); 128..159 starts
/// past that cutoff, so every SIMD tail residue (AVX2 strides 16 words) is
/// hit in the vector path.
std::vector<std::size_t> test_lengths() {
  std::vector<std::size_t> ns;
  for (std::size_t t = 0; t < 32; ++t) ns.push_back(t);
  for (std::size_t t = 0; t < 32; ++t) ns.push_back(128 + t);
  return ns;
}

/// Rows with zeros sprinkled in (the scalar loop's s == 0 skip) and full
/// 16-bit values elsewhere.
std::vector<word> random_row(rng& rand, std::size_t n) {
  std::vector<word> row(n);
  for (word& w : row)
    w = rand.below(5) == 0 ? 0 : static_cast<word>(1 + rand.below(65535));
  return row;
}

/// One row holding every word 0..65535: every nibble value at every nibble
/// position, so multiplying it by a coefficient reads every entry of that
/// coefficient's eight table planes. Run for the identity, the bench's
/// coefficient and the all-ones word.
std::vector<word> every_word() {
  std::vector<word> row(65536);
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<word>(i);
  return row;
}
constexpr word every_word_coeffs[] = {1, 0x1b3f, 0xffff};

TEST(GfKernels, ScalarIsTheDefaultFallbackAndNamesRoundTrip) {
  EXPECT_TRUE(gf2_16::set_backend(gf_backend::scalar));
  EXPECT_EQ(gf2_16::backend(), gf_backend::scalar);
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::scalar), "scalar");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::ssse3), "ssse3");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::avx2), "avx2");
  // At least one SIMD backend is expected on the CI x86 runners, but a
  // build must never FAIL for lacking one (off x86 there is none) —
  // unsupported requests are rejected cleanly.
  for (gf_backend b : {gf_backend::ssse3, gf_backend::avx2}) {
    if (!gf2_16::set_backend(b)) {
      EXPECT_NE(gf2_16::backend(), b);
    }
  }
  gf2_16::set_backend(gf_backend::scalar);
}

TEST(GfKernels, AxpyMatchesMulAcrossBackendsTailsAlignmentsAndCoeffs) {
  rng rand(0x5eed);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    // The +1/+3 word offsets break 16- and 32-byte alignment.
    for (std::size_t n : test_lengths()) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        for (word coeff : {word{0}, word{1}, static_cast<word>(1 + rand.below(65535)),
                           static_cast<word>(1 + rand.below(65535))}) {
          std::vector<word> src = random_row(rand, n + off);
          std::vector<word> dst = random_row(rand, n + off);
          std::vector<word> expect(dst);
          for (std::size_t i = 0; i < n; ++i)
            expect[off + i] =
                gf2_16::add(expect[off + i], ref_mul(coeff, src[off + i]));
          gf2_16::axpy(dst.data() + off, src.data() + off, coeff, n);
          EXPECT_EQ(dst, expect) << "backend " << gf2_16::backend_name(b)
                                 << " n=" << n << " off=" << off
                                 << " coeff=" << coeff;
        }
      }
    }
    // One long row: exercises the main vector loop well past one stride.
    const std::size_t n = 517;
    const word coeff = 0x1b3f;
    std::vector<word> src = random_row(rand, n);
    std::vector<word> dst = random_row(rand, n);
    std::vector<word> expect(dst);
    for (std::size_t i = 0; i < n; ++i)
      expect[i] = gf2_16::add(expect[i], ref_mul(coeff, src[i]));
    gf2_16::axpy(dst.data(), src.data(), coeff, n);
    EXPECT_EQ(dst, expect) << gf2_16::backend_name(b);
    for (word c : every_word_coeffs) {
      const std::vector<word> all = every_word();
      std::vector<word> acc = random_row(rand, all.size());
      std::vector<word> want(acc);
      for (std::size_t i = 0; i < all.size(); ++i)
        want[i] = gf2_16::add(want[i], ref_mul(c, all[i]));
      gf2_16::axpy(acc.data(), all.data(), c, all.size());
      EXPECT_EQ(acc, want) << "backend " << gf2_16::backend_name(b)
                           << " every word, coeff=" << c;
    }
  }
}

TEST(GfKernels, ScaleMatchesMulIncludingAliasedInPlaceUse) {
  rng rand(0xabcd);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    for (std::size_t n : test_lengths()) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        for (word coeff : {word{0}, word{1}, static_cast<word>(1 + rand.below(65535))}) {
          // scale is inherently aliased (reads and writes the same row);
          // the dst==src concern is that a backend might stage through the
          // source after partially overwriting it.
          std::vector<word> v = random_row(rand, n + off);
          std::vector<word> expect(v);
          for (std::size_t i = 0; i < n; ++i)
            expect[off + i] = ref_mul(coeff, v[off + i]);
          gf2_16::scale(v.data() + off, coeff, n);
          EXPECT_EQ(v, expect) << "backend " << gf2_16::backend_name(b)
                               << " n=" << n << " off=" << off
                               << " coeff=" << coeff;
        }
      }
    }
    for (word c : every_word_coeffs) {
      std::vector<word> v = every_word();
      std::vector<word> expect(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) expect[i] = ref_mul(c, v[i]);
      gf2_16::scale(v.data(), c, v.size());
      EXPECT_EQ(v, expect) << "backend " << gf2_16::backend_name(b)
                           << " every word, coeff=" << c;
    }
  }
}

TEST(GfKernels, AxpyToleratesDstAliasingSrc) {
  // dst == src is elementwise-safe by the kernel contract: dst[i] ^=
  // c*src[i] reads src[i] before (or independent of) the store.
  rng rand(0x77);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    std::vector<word> v = random_row(rand, 157);  // past the short-row cutoff
    const word coeff = 0x0101;
    std::vector<word> expect(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      expect[i] = gf2_16::add(v[i], ref_mul(coeff, v[i]));
    gf2_16::axpy(v.data(), v.data(), coeff, v.size());
    EXPECT_EQ(v, expect) << gf2_16::backend_name(b);
  }
}

TEST(GfKernels, NibbleTablesHoldTheirCoefficient) {
  // dot's scalar path multiplies by the coefficient it reads back.
  for (std::uint32_t c = 0; c < 65536; ++c)
    ASSERT_EQ(nibble_tables::of(static_cast<word>(c)).coeff(), c);
}

TEST(GfKernels, DotMatchesMulAcrossBackendsRowsTailsAndAlignments) {
  // Every backend must write the test-local sum of products word for word
  // (over whatever dst held before), leave the words past n alone, and
  // count rows * n words presented per call, whatever its coefficients.
  std::vector<std::vector<word>> outputs;
  std::vector<std::uint64_t> presented;
  std::uint64_t expected_words = 0;
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    rng rand(0xd07);  // the same calls on every backend
    obs::collector col;
    std::vector<word> all;
    expected_words = 0;
    {
      obs::scoped_collector counting(&col);
      for (std::size_t rows = 1; rows <= 13; ++rows) {
        for (std::size_t n : test_lengths()) {
          for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
            const std::size_t stride = n + 5;
            const std::vector<word> src = random_row(rand, off + rows * stride);
            std::vector<word> coeffs(rows);
            std::vector<nibble_tables> tables;
            for (word& c : coeffs) {
              const auto pick = rand.below(4);
              c = pick < 2 ? static_cast<word>(pick) : static_cast<word>(1 + rand.below(65535));
              tables.push_back(nibble_tables::of(c));
            }
            std::vector<word> dst = random_row(rand, off + n + 1);
            std::vector<word> expect(dst);
            for (std::size_t i = 0; i < n; ++i) {
              word sum = 0;
              for (std::size_t r = 0; r < rows; ++r)
                sum = gf2_16::add(sum, ref_mul(coeffs[r], src[off + r * stride + i]));
              expect[off + i] = sum;
            }
            gf2_16::dot(dst.data() + off, src.data() + off, stride, tables.data(), rows,
                        n);
            EXPECT_EQ(dst, expect) << "backend " << gf2_16::backend_name(b)
                                   << " rows=" << rows << " n=" << n << " off=" << off;
            expected_words += rows * n;
            all.insert(all.end(), dst.begin(), dst.end());
          }
        }
      }
    }
    outputs.push_back(std::move(all));
    presented.push_back(col.value(obs::counter::gf_axpy_words));
    for (word c : every_word_coeffs) {
      const std::vector<word> src = every_word();
      const nibble_tables tables = nibble_tables::of(c);
      std::vector<word> dst(src.size());
      std::vector<word> expect(src.size());
      for (std::size_t i = 0; i < src.size(); ++i) expect[i] = ref_mul(c, src[i]);
      gf2_16::dot(dst.data(), src.data(), src.size(), &tables, 1, src.size());
      EXPECT_EQ(dst, expect) << "backend " << gf2_16::backend_name(b)
                             << " every word, coeff=" << c;
    }
  }
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(presented.front(), expected_words);
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], outputs.front());
    EXPECT_EQ(presented[i], presented.front());
  }
}

TEST(GfKernels, CountersAreWordsPresentedAndBackendInvariant) {
  // The satellite-2 contract: counters mean words PRESENTED. coeff == 0
  // axpys and coeff == 1 scales count their n despite doing no table work,
  // rows full of zero source words count fully, and every backend reports
  // the same totals for the same call sequence.
  const auto run_ops = [] {
    obs::collector col;
    {
      obs::scoped_collector scope(&col);
      std::vector<word> a(37, word{7}), b(37, word{0});
      gf2_16::axpy(a.data(), b.data(), 0x1234, a.size());  // all-zero source
      gf2_16::axpy(a.data(), b.data(), 0, a.size());       // coeff 0 early-out
      gf2_16::scale(a.data(), 1, a.size());                // coeff 1 early-out
      gf2_16::scale(a.data(), 0, a.size());                // zero-fill
      gf2_16::scale(a.data(), 0x4321, 13);
      gf2_16::axpy(a.data(), b.data(), 0x00ff, 5);
    }
    return std::pair{col.value(obs::counter::gf_axpy_words),
                     col.value(obs::counter::gf_scale_words)};
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    totals.push_back(run_ops());
  }
  ASSERT_FALSE(totals.empty());
  EXPECT_EQ(totals.front().first, 37u + 37u + 5u);
  EXPECT_EQ(totals.front().second, 37u + 37u + 13u);
  for (const auto& t : totals) EXPECT_EQ(t, totals.front());
}

}  // namespace
}  // namespace nab::gf
