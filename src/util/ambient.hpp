#pragma once

namespace nab {

/// A per-thread "ambient" slot: the one `T*` that code on this thread
/// reaches without a handle threaded through every call (the trace, link
/// fault model and run arena a network or allocation picks up, the obs
/// collector an instrumentation site counts into). Each thread has its own
/// slot, so fleet workers running in parallel share nothing and need no
/// synchronization. nullptr means nothing is installed.
template <class T>
struct ambient {
  /// The calling thread's slot.
  static inline thread_local T* current = nullptr;

  /// Installs a value in the calling thread's slot for the lifetime of the
  /// scope and restores the previous one on destruction, so scopes nest.
  class scope {
   public:
    explicit scope(T* value) : previous_(current) { current = value; }
    ~scope() { current = previous_; }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    T* previous_;
  };
};

}  // namespace nab
