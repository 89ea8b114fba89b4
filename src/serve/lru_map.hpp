// A string-keyed map that holds at most a fixed number of entries: admitting
// a new key past the cap drops the least recently used one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace tir::serve {

template <class V>
class LruMap {
 public:
  /// `capacity` 0 = unlimited.
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; null when absent.
  /// The pointer stays valid until that key is erased or evicted.
  V* find(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry.
  V& put(const std::string& key, V value) {
    if (V* held = find(key)) return *held = std::move(value);
    if (capacity_ > 0 && index_.size() >= capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    return order_.front().second;
  }

  void erase(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
  }

  std::size_t size() const { return index_.size(); }

  /// Entries put() has dropped to stay within the capacity.
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Order = std::list<std::pair<std::string, V>>;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  Order order_;  ///< front = most recently used
  std::unordered_map<std::string, typename Order::iterator> index_;
};

}  // namespace tir::serve
