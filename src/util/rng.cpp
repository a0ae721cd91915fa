#include "util/rng.hpp"

#include "util/assert.hpp"

namespace nab {

std::uint64_t rng::below(std::uint64_t bound) {
  NAB_ASSERT(bound > 0, "rng::below requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t draw = engine_();
  while (draw >= limit) draw = engine_();
  return draw % bound;
}

std::int64_t rng::between(std::int64_t lo, std::int64_t hi) {
  NAB_ASSERT(lo <= hi, "rng::between requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

bool rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  constexpr double kScale = 1.0 / 18446744073709551616.0;  // 2^-64
  return static_cast<double>(engine_()) * kScale < p;
}

}  // namespace nab
