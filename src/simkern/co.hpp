// Coroutine plumbing for simulated processes.
//
// Two coroutine types exist:
//   - Task: the root coroutine of a simulated process. It is started and
//     owned by the Engine (via Process) and nobody awaits it.
//   - Co<void>: a nested coroutine that is itself awaitable; awaiting it
//     starts it (lazy) and resumes the awaiter upon completion via
//     symmetric transfer. Simulated MPI operations and collectives are
//     Co<void>s; none returns a value, so only that specialisation exists.
//
// Both are strictly single-threaded: the Engine resumes exactly one
// coroutine at a time, so no synchronization is needed. Their frames come
// from the per-thread block cache (block_cache.hpp): a replayed action
// creates a few (Rank::send, Rank::wait, a collective and the sends and
// receives inside it; an Isend or Irecv none), and recycling them keeps
// the heap out of the steady state.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "simkern/block_cache.hpp"

namespace tir::sim {

template <typename T = void>
class Co;  // only Co<void> is defined

namespace detail {

template <typename Promise>
struct SymmetricFinalAwaiter {
  bool await_ready() noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Hand control back to whoever awaited this coroutine. The frame stays
    // alive (suspended at final_suspend) until the owning Co<> destroys it.
    const auto continuation = h.promise().continuation;
    return continuation ? continuation : std::coroutine_handle<>(
                                             std::noop_coroutine());
  }
  void await_resume() noexcept {}
};

struct CoPromiseBase : block_cache::Cached {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
};

}  // namespace detail

/// A lazily-started awaitable coroutine.
template <>
class Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::SymmetricFinalAwaiter<promise_type> final_suspend() noexcept {
      return {};
    }
    void return_void() {}
    void unhandled_exception() { this->error = std::current_exception(); }
  };

  Co() = default;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

class Process;

/// Root coroutine of a simulated process. Returned by the process body;
/// the Engine keeps the handle inside the owning Process.
class Task {
 public:
  struct promise_type : block_cache::Cached {
    Process* process = nullptr;  ///< set by Engine::spawn before first resume
    std::exception_ptr error;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Defined in engine.cpp: flags the process as finished so the Engine can
    // account for it, then stays suspended (the Process destroys the frame).
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}

  /// Releases ownership of the frame to the caller (Engine::spawn).
  Handle release() { return std::exchange(handle_, {}); }

 private:
  Handle handle_;
};

}  // namespace tir::sim
