#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nab {

void parallel_for_each_index(int jobs, std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (jobs <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs), count);

  // Each index is a whole run or fill block, far costlier than one atomic
  // decrement, so one shared counter is all the scheduling they need.
  std::atomic<std::ptrdiff_t> next{static_cast<std::ptrdiff_t>(count) - 1};

  // First-failing-index exception wins, so error reporting is as
  // deterministic as the results themselves.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = count;

  auto worker_body = [&] {
    for (std::ptrdiff_t claimed; (claimed = next.fetch_sub(1)) >= 0;) {
      const auto task = static_cast<std::size_t>(claimed);
      try {
        fn(task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (task < first_error_index) {
          first_error_index = task;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_body);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace nab
