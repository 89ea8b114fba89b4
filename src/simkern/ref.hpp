// Ref<T>: the handle to a thread-confined, reference-counted object
// (activities, MPI requests).
//
// std::shared_ptr counts atomically as soon as the process has started a
// thread, and a replayed action copies and drops handles many times. An
// engine's objects are only ever touched by the thread running that engine,
// so the count is a plain integer inside the object, and the objects come
// from the per-thread block cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "simkern/block_cache.hpp"

namespace tir::sim {

/// Base of every object a Ref holds: a non-atomic count, and allocation
/// from the block cache. Not copyable: a copy would copy the count.
class RefCounted : public block_cache::Cached {
 protected:
  RefCounted() = default;
  RefCounted(const RefCounted&) = delete;
  RefCounted& operator=(const RefCounted&) = delete;
  ~RefCounted() = default;

 private:
  template <class>
  friend class Ref;
  std::uint32_t refs_ = 0;
};

template <class T>
class Ref {
 public:
  Ref() noexcept = default;
  Ref(std::nullptr_t) noexcept {}
  /// A new reference to `object`, which may already have others.
  explicit Ref(T* object) noexcept : ptr_(object) { acquire(); }
  Ref(const Ref& other) noexcept : ptr_(other.ptr_) { acquire(); }
  Ref(Ref&& other) noexcept : ptr_(std::exchange(other.ptr_, nullptr)) {}
  template <class U, class = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(const Ref<U>& other) noexcept : ptr_(other.ptr_) {
    acquire();
  }
  template <class U, class = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(Ref<U>&& other) noexcept : ptr_(std::exchange(other.ptr_, nullptr)) {}
  ~Ref() { drop(ptr_); }

  Ref& operator=(Ref other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }

  T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }
  void reset() noexcept { drop(std::exchange(ptr_, nullptr)); }

  friend bool operator==(const Ref& a, const Ref& b) noexcept {
    return a.ptr_ == b.ptr_;
  }

 private:
  template <class>
  friend class Ref;

  void acquire() const noexcept {
    if (ptr_ != nullptr) ++static_cast<RefCounted*>(ptr_)->refs_;
  }
  static void drop(T* object) noexcept {
    if (object != nullptr && --static_cast<RefCounted*>(object)->refs_ == 0)
      delete object;
  }

  T* ptr_ = nullptr;
};

/// Creates a T and returns the first reference to it.
template <class T, class... Args>
Ref<T> make_ref(Args&&... args) {
  return Ref<T>(new T(std::forward<Args>(args)...));
}

}  // namespace tir::sim
