// Per-thread recycling of the simulation's small, short-lived blocks:
// coroutine frames, activities and MPI request states.
//
// A replayed action creates a handful of these and frees them a few events
// later, so a heap call per block is a large share of the action's cost.
// The cache keeps freed blocks on per-thread free lists, one per size
// class, and hands them out again; a replay's steady state makes no heap
// call at all.
//
//   - Sizes round up to 16-byte classes up to kMaxBlockBytes; larger
//     requests go to the heap.
//   - A thread keeps at most kBudgetBytes of free blocks (a constant); frees
//     past the budget go to the heap.
//   - Every cached block is a heap block of its class size, so a block may
//     be freed on any thread: it joins that thread's lists.
//   - A thread's lists go back to the heap when the thread exits. Frees that
//     arrive afterwards (later thread-local or static destructors) go
//     straight to the heap.
//   - Under -fsanitize=address or -fsanitize=thread every call goes to the
//     heap: ASan cannot see a use-after-free in recycled memory.
#pragma once

#include <cstddef>
#include <new>

namespace tir::sim::block_cache {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kMaxBlockBytes = 512;
inline constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)

inline void* allocate(std::size_t bytes) { return ::operator new(bytes); }
inline void deallocate(void* block, std::size_t) noexcept {
  ::operator delete(block);
}

#else

namespace detail {

inline constexpr std::size_t kClasses = kMaxBlockBytes / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

enum class State : unsigned char { unused, live, gone };

// Constant-initialised and trivially destructible, so it stays readable for
// the whole life of the thread, after the reaper below has run too.
struct Lists {
  FreeBlock* head[kClasses];
  std::size_t bytes;
  State state;
};
inline thread_local Lists lists{};

// Constructed on a thread's first cached free; its destructor returns the
// thread's blocks to the heap when the thread exits.
struct Reaper {
  Reaper() noexcept { lists.state = State::live; }
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    for (FreeBlock*& head : lists.head) {
      while (FreeBlock* block = head) {
        head = block->next;
        ::operator delete(block);
      }
    }
    lists.bytes = 0;
    lists.state = State::gone;
  }
};
inline thread_local Reaper reaper;

inline std::size_t size_class(std::size_t bytes) {
  return (bytes - 1) / kGranule;
}

}  // namespace detail

inline void* allocate(std::size_t bytes) {
  if (bytes == 0 || bytes > kMaxBlockBytes) return ::operator new(bytes);
  const std::size_t c = detail::size_class(bytes);
  detail::Lists& lists = detail::lists;
  if (detail::FreeBlock* block = lists.head[c]) {
    lists.head[c] = block->next;
    lists.bytes -= (c + 1) * kGranule;
    return block;
  }
  return ::operator new((c + 1) * kGranule);
}

inline void deallocate(void* block, std::size_t bytes) noexcept {
  if (bytes == 0 || bytes > kMaxBlockBytes) {
    ::operator delete(block);
    return;
  }
  const std::size_t c = detail::size_class(bytes);
  const std::size_t size = (c + 1) * kGranule;
  detail::Lists& lists = detail::lists;
  if (lists.state == detail::State::unused)
    static_cast<void>(detail::reaper);  // constructing it marks the lists live
  if (lists.state != detail::State::live ||
      lists.bytes + size > kBudgetBytes) {
    ::operator delete(block);
    return;
  }
  lists.head[c] = new (block) detail::FreeBlock{lists.head[c]};
  lists.bytes += size;
}

#endif

/// Derive from this to allocate a class's objects from the cache. On a
/// coroutine promise type it allocates the coroutine's frames. The sized
/// delete gets the dynamic type's size when the class has a virtual
/// destructor.
struct Cached {
  static void* operator new(std::size_t bytes) { return allocate(bytes); }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    deallocate(block, bytes);
  }
};

}  // namespace tir::sim::block_cache
