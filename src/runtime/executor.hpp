#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace nab::runtime {

/// Every per-shard seed derives from (sweep seed, run index) by splitmix64,
/// so a sweep's randomness is a pure function of its inputs regardless of
/// how it is scheduled.
using nab::splitmix64;

/// The seed shard `index` of a sweep runs with. Two mixer rounds decorrelate
/// adjacent indices and distinct base seeds completely.
constexpr std::uint64_t derive_run_seed(std::uint64_t base_seed, std::uint64_t index) {
  return splitmix64(splitmix64(base_seed) ^ splitmix64(index + 0x51ed2701ULL));
}

}  // namespace nab::runtime
