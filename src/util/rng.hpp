#pragma once

#include <cstdint>
#include <random>

namespace nab {

/// splitmix64's increment: the 64-bit golden ratio (Steele, Lea & Flood).
inline constexpr std::uint64_t splitmix64_gamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output finalizer. A stream steps its state by
/// splitmix64_gamma and emits finalize(state).
constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 — the standard 64-bit seed-derivation mixer: one stream step
/// from state x. Sweep-run and hunt seeds, link-fault chains and the
/// analysis-cache fingerprints all derive from it, never from wall clock or
/// thread identity.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return splitmix64_finalize(x + splitmix64_gamma);
}

/// Deterministic pseudo-random source used throughout the library.
///
/// Everything in nabcast that needs randomness (coding-matrix generation,
/// graph generators, adversary strategies, property tests) draws from an
/// explicitly seeded `rng` so that every run is reproducible. The engine is
/// std::mt19937_64; the wrapper pins down the draw helpers we rely on so
/// results do not depend on distribution implementations.
class rng {
 public:
  explicit rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform 64-bit word.
  std::uint64_t next_u64() { return engine_(); }

  /// Uniform 32-bit word.
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(engine_() >> 32); }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p in [0, 1].
  bool chance(double p);

 private:
  std::mt19937_64 engine_;
};

}  // namespace nab
