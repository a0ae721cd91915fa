#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/ambient.hpp"

namespace nab::sim {

/// Per-run monotonic arena with pooled free lists for the small size classes
/// that churn during protocol simulation (message payloads, EIG label
/// vectors, claim-map nodes).
///
/// Lifetime contract (docs/RUNTIME.md §arena):
/// - An arena is **thread-confined**: one thread (or one test) owns it; it
///   is never shared across threads. Each thread has one of its own,
///   thread_arena(), which every session on that thread reuses.
/// - Allocation is monotonic within a run: small blocks (<= 4 KiB, rounded
///   to a power-of-two size class) return to a per-class free list on
///   deallocation and are recycled; larger blocks are bump-only and are
///   reclaimed wholesale by `reset()`.
/// - `reset()` rewinds every block and clears the free lists, *retaining*
///   the underlying pages — a steady-state run performs zero heap
///   allocations. Resetting while allocations are still live is a caller
///   bug (use-after-reset); `reset()` aborts on it via NAB_ASSERT, which is
///   exactly how the regression tests prove the session reclaims everything
///   (including on early-abort paths) before rewinding. Destroying an arena
///   with live allocations aborts the same way, instead of leaving a
///   container to free into dead pages later.
/// - Anything that must outlive the run (instance reports, dispute records,
///   traces) must be copied into plainly-allocated storage before the reset
///   point.
class run_arena {
 public:
  run_arena() = default;
  /// Precondition (aborts otherwise): no allocation is still live.
  ~run_arena();
  run_arena(const run_arena&) = delete;
  run_arena& operator=(const run_arena&) = delete;

  /// Bump-or-pool allocation. `align` must be <= 16 (everything the
  /// simulator allocates is), and the returned pointer is 16-aligned.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Returns pooled size classes to their free list; larger blocks are
  /// dropped (their space comes back at the next reset).
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Rewinds all blocks and clears the free lists, keeping capacity.
  /// Precondition (aborts otherwise): no allocation is still live.
  void reset();

  /// True iff p points into one of the arena's blocks.
  bool owns(const void* p) const;

  // --- observability (tests, bench reporting) ---
  std::uint64_t live_allocations() const { return live_; }
  std::uint64_t total_allocations() const { return total_; }
  std::uint64_t pool_hits() const { return pool_hits_; }
  std::uint64_t resets() const { return resets_; }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t bytes_reserved() const;
  std::size_t bytes_in_use() const;

  /// Largest request the arena pools (and the cutoff above which
  /// arena_alloc bypasses the arena entirely). The arena's design center is
  /// the *small-block churn* — message payloads, label vectors, map nodes —
  /// where bump+free-list allocation wins. Buffers beyond this (EIG claim
  /// batches on 32-node topologies grow into the MiBs) are better served by
  /// malloc, which recycles them adaptively: routing them through a
  /// monotonic arena ballooned hypercube_d5's peak RSS from 1.8 GB to
  /// 8.4 GB of cold pages and doubled its wall time.
  static constexpr std::size_t max_pooled_bytes = 64 * 1024;

 private:
  // Pooled classes: powers of two from 16 B to 64 KiB (requests below 16
  // round up).
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinClassBytes = 16;
  static constexpr std::size_t kMaxPooledBytes = max_pooled_bytes;
  static constexpr int kClassCount = 13;  // log2(64 KiB / 16 B) + 1

  struct block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static int class_of(std::size_t bytes);        // -1 when not pooled
  static std::size_t class_bytes(int cls) { return kMinClassBytes << cls; }
  void* bump(std::size_t bytes);

  std::vector<block> blocks_;
  std::size_t cursor_ = 0;          // block currently being bumped
  void* free_lists_[kClassCount] = {};
  std::uint64_t live_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t resets_ = 0;
};

/// The calling thread's own arena, created on first use and destroyed when
/// the thread exits. Every core::session runs its instances in it, so
/// consecutive sessions on one thread (a fleet worker's runs, nabbench's
/// sessions) reuse the pages the first one grew instead of each growing and
/// freeing blocks of its own.
run_arena& thread_arena();

/// The calling thread's ambient arena (nullptr when none is installed) —
/// the same pattern as sim::ambient_trace. arena_alloc draws from it at
/// allocation time, so protocol code does not thread an allocator handle
/// through every call; core::session installs its arena for the duration of
/// each run_instance.
inline run_arena* ambient_arena() { return ambient<run_arena>::current; }

/// Installs `a` as the calling thread's ambient arena for the lifetime of
/// the scope; restores the previous one on destruction. Scopes nest, and
/// passing nullptr *suspends* pooling (used around allocations that must
/// outlive the run, e.g. the session's cached channel plan).
using scoped_run_arena = ambient<run_arena>::scope;

namespace detail {

/// Every arena_alloc allocation is prefixed with this header, so
/// deallocation routes to the owning arena (or the heap, owner == nullptr)
/// regardless of what arena — if any — is ambient at free time. Containers
/// may therefore be handed across scopes freely; the only hard rule is that
/// they die (or are shrunk to zero capacity) before their arena resets.
struct alloc_header {
  run_arena* owner;
  std::uint64_t magic;
};
static_assert(sizeof(alloc_header) == 16, "header must preserve 16-alignment");
inline constexpr std::uint64_t kArenaMagic = 0x9e3779b97f4a7c15ULL;

void* arena_allocate(std::size_t bytes);
void arena_deallocate(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// STL allocator over the ambient arena, falling back to the heap when none
/// is installed. Stateless: all instances compare equal, so containers move
/// and swap freely across arena boundaries (the header routes each block
/// back to its true owner).
template <typename T>
struct arena_alloc {
  using value_type = T;

  arena_alloc() noexcept = default;
  template <typename U>
  arena_alloc(const arena_alloc<U>&) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "arena_alloc supports alignments up to 16");
    return static_cast<T*>(detail::arena_allocate(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    detail::arena_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const arena_alloc<U>&) const noexcept {
    return true;
  }
};

/// The pooled container aliases protocol code uses.
template <typename T>
using pooled_vector = std::vector<T, arena_alloc<T>>;

/// Opaque wire payload: 64-bit transport words, arena-backed.
using payload = pooled_vector<std::uint64_t>;

}  // namespace nab::sim
