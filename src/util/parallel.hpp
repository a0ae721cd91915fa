#pragma once

#include <cstddef>
#include <functional>

namespace nab {

/// Executes fn(0) .. fn(count - 1) on `jobs` worker threads. Workers claim
/// indices from one shared counter, highest index first: the registry puts
/// a sweep's long frontier runs behind most of its short ones, so they start
/// early instead of last. Each index runs exactly once, on exactly one
/// thread. `jobs <= 1` runs inline on the calling thread, in ascending order.
///
/// The function must be safe to call concurrently for distinct indices;
/// result ordering/determinism is the CALLER's job (write to slot `index` of
/// a pre-sized vector — never append under a lock).
///
/// Exceptions thrown by `fn` are captured; the first one (lowest index) is
/// rethrown on the calling thread after every worker has drained.
void parallel_for_each_index(int jobs, std::size_t count,
                             const std::function<void(std::size_t)>& fn);

}  // namespace nab
