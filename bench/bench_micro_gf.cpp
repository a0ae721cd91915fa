// M1: Galois-field and linear-algebra micro-benchmarks (google-benchmark).
// These underpin the Equality Check's per-bit cost: one GF(2^16) multiply
// per coefficient per slice.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "gf/gf2_16.hpp"
#include "gf/gf2m.hpp"
#include "gf/linalg.hpp"
#include "gf/matrix.hpp"
#include "util/rng.hpp"

namespace {

template <class F>
void bm_mul(benchmark::State& state) {
  nab::rng rand(1);
  std::vector<typename F::value_type> xs(4096);
  for (auto& x : xs) x = static_cast<typename F::value_type>(rand.below(F::order));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = xs[i % xs.size()];
    const auto b = xs[(i + 1) % xs.size()];
    benchmark::DoNotOptimize(F::mul(a, b));
    ++i;
  }
}
BENCHMARK(bm_mul<nab::gf::gf2_16>)->Name("gf2_16_mul");
BENCHMARK(bm_mul<nab::gf::gf2m<16>>)->Name("gf2m16_mul_shiftadd");

template <class F>
void bm_inv(benchmark::State& state) {
  nab::rng rand(2);
  std::vector<typename F::value_type> xs(4096);
  for (auto& x : xs) x = static_cast<typename F::value_type>(1 + rand.below(F::order - 1));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(F::inv(xs[i % xs.size()]));
    ++i;
  }
}
BENCHMARK(bm_inv<nab::gf::gf2_16>)->Name("gf2_16_inv");
BENCHMARK(bm_inv<nab::gf::gf2m<16>>)->Name("gf2m16_inv_fermat");

void bm_axpy_backend(benchmark::State& state, nab::gf::gf_backend backend) {
  using F = nab::gf::gf2_16;
  if (!F::set_backend(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(5);
  std::vector<F::value_type> src(n), dst(n);
  for (auto& x : src) x = static_cast<F::value_type>(rand.below(F::order));
  for (auto& x : dst) x = static_cast<F::value_type>(rand.below(F::order));
  for (auto _ : state) {
    F::axpy(dst.data(), src.data(), 0x1b3f, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
  F::set_backend(nab::gf::gf_backend::scalar);
}
BENCHMARK_CAPTURE(bm_axpy_backend, scalar, nab::gf::gf_backend::scalar)
    ->Name("gf2_16_axpy_scalar")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, ssse3, nab::gf::gf_backend::ssse3)
    ->Name("gf2_16_axpy_ssse3")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, avx2, nab::gf::gf_backend::avx2)
    ->Name("gf2_16_axpy_avx2")->Arg(64)->Arg(640)->Arg(4096);

void bm_scale_backend(benchmark::State& state, nab::gf::gf_backend backend) {
  using F = nab::gf::gf2_16;
  if (!F::set_backend(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(7);
  std::vector<F::value_type> v(n);
  for (auto& x : v) x = static_cast<F::value_type>(rand.below(F::order));
  for (auto _ : state) {
    F::scale(v.data(), 0x1b3f, n);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
  F::set_backend(nab::gf::gf_backend::scalar);
}
BENCHMARK_CAPTURE(bm_scale_backend, scalar, nab::gf::gf_backend::scalar)
    ->Name("gf2_16_scale_scalar")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_scale_backend, ssse3, nab::gf::gf_backend::ssse3)
    ->Name("gf2_16_scale_ssse3")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_scale_backend, avx2, nab::gf::gf_backend::avx2)
    ->Name("gf2_16_scale_avx2")->Arg(64)->Arg(640)->Arg(4096);

// One coded symbol of the equality check's encode: rho value symbols of
// `slices` words each, times one column of C_e. Arg dot = 0 runs it as rho
// axpy calls, each building its coefficient's tables (and below 128 words
// taking the scalar loop); dot = 1 as one gf2_16::dot on tables built
// before the timed loop, as core::coding_scheme::encode does.
void bm_encode_backend(benchmark::State& state, nab::gf::gf_backend backend) {
  using F = nab::gf::gf2_16;
  if (!F::set_backend(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const auto rho = static_cast<std::size_t>(state.range(0));
  const auto slices = static_cast<std::size_t>(state.range(1));
  const bool fused = state.range(2) != 0;
  nab::rng rand(6);
  std::vector<F::value_type> x(rho * slices), coeffs(rho), dst(slices);
  for (auto& w : x) w = static_cast<F::value_type>(rand.below(F::order));
  std::vector<nab::gf::nibble_tables> tables;
  for (auto& c : coeffs) {
    c = static_cast<F::value_type>(1 + rand.below(F::order - 1));
    tables.push_back(nab::gf::nibble_tables::of(c));
  }
  for (auto _ : state) {
    if (fused) {
      F::dot(dst.data(), x.data(), slices, tables.data(), rho, slices);
    } else {
      std::fill(dst.begin(), dst.end(), F::value_type{0});
      for (std::size_t r = 0; r < rho; ++r)
        F::axpy(dst.data(), x.data() + r * slices, coeffs[r], slices);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rho * slices) * 2);
  F::set_backend(nab::gf::gf_backend::scalar);
}
// lossy_dense's K_16 (rho = 13, 316-word symbols) and stream_sparse's Q_5
// (rho = 6, 683-word symbols), each as axpy calls and as one dot.
#define NAB_ENCODE_ROWS(backend)                                          \
  BENCHMARK_CAPTURE(bm_encode_backend, backend, nab::gf::gf_backend::backend) \
      ->Name("gf2_16_encode/" #backend)                                   \
      ->ArgNames({"rho", "slices", "dot"})                                \
      ->Args({13, 316, 0})                                                \
      ->Args({13, 316, 1})                                                \
      ->Args({6, 683, 0})                                                 \
      ->Args({6, 683, 1})
NAB_ENCODE_ROWS(scalar);
NAB_ENCODE_ROWS(ssse3);
NAB_ENCODE_ROWS(avx2);
#undef NAB_ENCODE_ROWS

void bm_matrix_mul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(3);
  const auto a = nab::gf::matrix<nab::gf::gf2_16>::random(n, n, rand);
  const auto b = nab::gf::matrix<nab::gf::gf2_16>::random(n, n, rand);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_matrix_mul)->Name("gf2_16_matrix_mul")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_matrix_rank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(4);
  const auto a = nab::gf::matrix<nab::gf::gf2_16>::random(n, 2 * n, rand);
  for (auto _ : state) benchmark::DoNotOptimize(nab::gf::rank(a));
}
BENCHMARK(bm_matrix_rank)->Name("gf2_16_rank")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
