// A FIFO queue that reuses its storage.
//
// std::deque frees its front chunk and allocates a new back chunk as a
// queue drifts through memory, so a queue that never grows still allocates
// steadily. Fifo keeps one vector and a head index instead: a pop advances
// the head, a push appends, and once the vector is full the consumed prefix
// is compacted away (when it is at least half the vector) before the
// vector would grow. Capacity settles at most twice the largest live size,
// after which pushes and pops allocate nothing. Elements keep their FIFO
// order; erase() removes one from the middle, as a deque's does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace tir {

template <class T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }

  iterator begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return items_.end(); }
  const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return items_.end(); }

  void push_back(T value) {
    if (items_.size() == items_.capacity() && head_ > 0 &&
        2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  /// Drops the front element (its value is released at once).
  void pop_front() {
    items_[head_] = T();
    if (++head_ == items_.size()) reset();
  }

  /// Removes the element at `it`, shifting the shorter side as a deque
  /// does (a match at the front costs a pop); the others keep their order.
  void erase(iterator it) {
    if (it - begin() < end() - it - 1) {
      std::move_backward(begin(), it, it + 1);
      pop_front();
      return;
    }
    std::move(it + 1, items_.end(), it);
    items_.pop_back();
    if (head_ == items_.size()) reset();
  }

 private:
  void reset() {
    items_.clear();
    head_ = 0;
  }

  std::vector<T> items_;
  std::size_t head_ = 0;  // first live element
};

}  // namespace tir
