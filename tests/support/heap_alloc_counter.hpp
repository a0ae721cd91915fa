#pragma once

// Binary-wide operator-new interposition counter for the allocation-count
// tests: the arena regression harness (tests/sim/test_run_arena.cpp) and
// the obs zero-overhead test (tests/obs/test_zero_overhead.cpp).
//
// Include this from EXACTLY ONE translation unit per binary: it defines the
// global replacement allocation functions, which are program-wide and (per
// [replacement.functions]) must not be inline — a second including TU is an
// ODR violation the linker will reject.

#include <atomic>
#include <cstdlib>
#include <new>

namespace nab::util {

inline std::atomic<std::uint64_t> heap_alloc_count{0};

/// Heap allocations (any operator-new form) since process start.
inline std::uint64_t heap_allocs() {
  return heap_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace nab::util

// noinline, every one: when GCC inlines one side of a new/delete pair into a
// caller in the including translation unit and not the other, it sees
// `malloc` paired with `delete`, or `new` with `free`, and warns
// -Wmismatched-new-delete (an inlined delete under -fsanitize=thread, an
// inlined new in the default build). Kept out of line, every pair GCC sees
// stays new/delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  nab::util::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) { return operator new(n); }
__attribute__((noinline)) void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  nab::util::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
__attribute__((noinline)) void* operator new[](std::size_t n,
                                               const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
