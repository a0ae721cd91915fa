#include "sim/run_arena.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace nab::sim {

namespace {

std::size_t round_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) & ~(align - 1);
}

}  // namespace

int run_arena::class_of(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return -1;
  std::size_t cls_bytes = kMinClassBytes;
  int cls = 0;
  while (cls_bytes < bytes) {
    cls_bytes <<= 1;
    ++cls;
  }
  return cls;
}

void* run_arena::bump(std::size_t bytes) {
  while (cursor_ < blocks_.size()) {
    block& b = blocks_[cursor_];
    if (b.size - b.used >= bytes) {
      void* p = b.data.get() + b.used;
      b.used += bytes;
      return p;
    }
    ++cursor_;
  }
  // Grow geometrically: each new block doubles the previous one, so a run's
  // whole working set ends up in O(log size) heap allocations total.
  constexpr std::size_t kMinBlockBytes = 64 * 1024;
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
  std::size_t size = std::max({bytes, 2 * last, kMinBlockBytes});
  block b;
  b.data = std::make_unique<std::byte[]>(size);
  NAB_ASSERT(reinterpret_cast<std::uintptr_t>(b.data.get()) % kAlign == 0,
             "arena block storage must be 16-aligned");
  b.size = size;
  b.used = bytes;
  blocks_.push_back(std::move(b));
  cursor_ = blocks_.size() - 1;
  return blocks_.back().data.get();
}

void* run_arena::allocate(std::size_t bytes, std::size_t align) {
  NAB_ASSERT(align <= kAlign, "run_arena serves alignments up to 16");
  ++live_;
  ++total_;
  // Machine-set counters: pool state depends on what ran on the thread before.
  obs::count(obs::counter::arena_allocs);
  const int cls = class_of(bytes);
  if (cls >= 0) {
    if (void* head = free_lists_[cls]) {
      std::memcpy(&free_lists_[cls], head, sizeof(void*));
      ++pool_hits_;
      obs::count(obs::counter::arena_pool_hits);
      return head;
    }
    return bump(class_bytes(cls));
  }
  return bump(round_up(bytes, kAlign));
}

void run_arena::deallocate(void* p, std::size_t bytes) noexcept {
  --live_;
  const int cls = class_of(bytes);
  if (cls < 0) return;  // bump-only: reclaimed by the next reset
  std::memcpy(p, &free_lists_[cls], sizeof(void*));
  free_lists_[cls] = p;
}

run_arena::~run_arena() {
  NAB_ASSERT(live_ == 0,
             "run_arena destroyed with live allocations — a container outlived "
             "its arena");
}

void run_arena::reset() {
  NAB_ASSERT(live_ == 0,
             "run_arena::reset with live allocations — a container outlived "
             "the run (use-after-reset)");
  for (void*& head : free_lists_) head = nullptr;
  for (block& b : blocks_) b.used = 0;
  cursor_ = 0;
  ++resets_;
}

run_arena& thread_arena() {
  static thread_local run_arena arena;
  return arena;
}

bool run_arena::owns(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  for (const block& blk : blocks_)
    if (b >= blk.data.get() && b < blk.data.get() + blk.size) return true;
  return false;
}

std::size_t run_arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.size;
  return total;
}

std::size_t run_arena::bytes_in_use() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.used;
  return total;
}

namespace detail {

void* arena_allocate(std::size_t bytes) {
  const std::size_t total = bytes + sizeof(alloc_header);
  // Large buffers bypass the arena even when one is ambient: malloc recycles
  // them adaptively, while a monotonic arena would burn cold pages on every
  // vector-growth step (see run_arena::max_pooled_bytes).
  run_arena* a =
      total <= run_arena::max_pooled_bytes ? ambient_arena() : nullptr;
  void* raw = a != nullptr ? a->allocate(total, alignof(alloc_header))
                           : ::operator new(total);
  auto* header = static_cast<alloc_header*>(raw);
  header->owner = a;
  header->magic = kArenaMagic;
  return static_cast<std::byte*>(raw) + sizeof(alloc_header);
}

void arena_deallocate(void* p, std::size_t bytes) noexcept {
  void* raw = static_cast<std::byte*>(p) - sizeof(alloc_header);
  auto* header = static_cast<alloc_header*>(raw);
  NAB_ASSERT(header->magic == kArenaMagic,
             "arena_alloc header corrupted (heap smash or foreign pointer)");
  if (header->owner != nullptr)
    header->owner->deallocate(raw, bytes + sizeof(alloc_header));
  else
    ::operator delete(raw);
}

}  // namespace detail

}  // namespace nab::sim
