#pragma once

#include <cstdint>
#include <functional>

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

/// Executes fn(0) .. fn(count - 1) on `jobs` worker threads with work
/// stealing: indices are dealt round-robin into per-worker deques; a worker
/// pops its own deque from the back (LIFO, cache-warm) and steals from the
/// fronts of others when empty (FIFO, takes the oldest — the classic
/// Blumofe/Leiserson discipline). Each index runs exactly once, on exactly
/// one thread. `jobs <= 1` runs inline on the calling thread.
///
/// The function must be safe to call concurrently for distinct indices;
/// result ordering/determinism is the CALLER's job (write to slot `index` of
/// a pre-sized vector — never append under a lock).
///
/// Exceptions thrown by `fn` are captured; the first one (lowest index) is
/// rethrown on the calling thread after every worker has drained.
void parallel_for_each_index(int jobs, std::size_t count,
                             const std::function<void(std::size_t)>& fn);

}  // namespace nab::runtime
