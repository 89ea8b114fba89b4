// A string-keyed map bounded by the total weight of its entries: admitting
// or re-weighing a key past the cap drops the least recently used ones.
// Each entry weighs 1 unless put() says otherwise, so a plain capacity is
// an entry count; the TraceCache weighs its entries in resident bytes.
// A key is stored once, in its list node; the index keys on a view of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace tir::serve {

template <class V>
class LruMap {
 public:
  /// `capacity`: the total weight held; 0 = unlimited.
  explicit LruMap(std::uint64_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; null when absent.
  /// The pointer stays valid until that key is erased or evicted.
  V* find(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Stores `value` under `key`, weighing `weight`, as the most recently
  /// used entry. Then evicts from the cold end while the total weight
  /// exceeds the capacity and more than one entry remains: an entry heavier
  /// than the capacity is still admitted (the alternative is never serving
  /// it) and goes as soon as anything newer lands. The returned reference
  /// is never the one evicted.
  V& put(const std::string& key, V value, std::uint64_t weight = 1) {
    if (find(key) != nullptr) {
      Node& held = order_.front();
      weight_ -= held.weight;
      held.value = std::move(value);
      held.weight = weight;
    } else {
      order_.push_front(Node{key, std::move(value), weight});
      index_.emplace(order_.front().key, order_.begin());
    }
    weight_ += weight;
    while (capacity_ > 0 && weight_ > capacity_ && order_.size() > 1) {
      weight_ -= order_.back().weight;
      index_.erase(order_.back().key);
      order_.pop_back();
      ++evictions_;
    }
    return order_.front().value;
  }

  void erase(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    const auto node = it->second;
    weight_ -= node->weight;
    index_.erase(it);  // before the node its key views
    order_.erase(node);
  }

  std::size_t size() const { return index_.size(); }

  /// Total weight of the entries held.
  std::uint64_t weight() const { return weight_; }

  /// Entries put() has dropped to stay within the capacity.
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::string key;
    V value;
    std::uint64_t weight;
  };
  using Order = std::list<Node>;
  std::uint64_t capacity_;
  std::uint64_t weight_ = 0;
  std::uint64_t evictions_ = 0;
  Order order_;  ///< front = most recently used
  /// Keys view the nodes' keys (list nodes never move).
  std::unordered_map<std::string_view, typename Order::iterator> index_;
};

}  // namespace tir::serve
