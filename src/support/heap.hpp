// An indexed min-heap with split keys: the kernel's one priority queue.
//
// A key is a (double, uint64) pair, the second field unique (a seq, an
// id), so the order is strict and any correct heap pops one sequence. The
// keys sit in a dense array of 16-byte records, one unsigned 128-bit
// integer each (the double's bits mapped so that unsigned order is numeric
// order; -0.0 reads +0.0, no NaN): a compare is one branch-free integer
// compare. The payloads sit in a parallel array, and each one moved is
// passed with its new slot to a hook, so its owner can keep a back-pointer.
// A re-key or erase sifts one way, chosen by the new key against the old;
// an erase sifts down bottom-up (to a leaf along the smaller children, then
// back up), which under a strict order leaves every entry where the classic
// sift does, so a binary heap's array order is the classic one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tir {

struct HeapKey {
  double first;
  std::uint64_t second;
};

template <class T, std::size_t Arity = 4>
class Heap {
 public:
  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  HeapKey front_key() const { return decode(keys_.front()); }
  T& front() { return items_.front(); }
  /// Key and payload at slot `i`, in array order. A payload may be handed
  /// to another owner in place (whose back-pointer the caller then sets).
  HeapKey key(std::size_t i) const { return decode(keys_[i]); }
  T& operator[](std::size_t i) { return items_[i]; }

  template <class Hook>
  void push(HeapKey key, T item, Hook&& hook) {
    keys_.push_back(~Bits{0});  // above every key: the sift goes up
    items_.emplace_back();
    sift(keys_.size() - 1, encode(key), std::move(item), hook, false);
  }
  /// Re-keys slot `i` in place.
  template <class Hook>
  void update(std::size_t i, HeapKey key, Hook&& hook) {
    sift(i, encode(key), std::move(items_[i]), hook, false);
  }
  /// Removes slot `i`; the last entry takes its place.
  template <class Hook>
  void erase(std::size_t i, Hook&& hook) {
    const Bits key = keys_.back();
    T item = std::move(items_.back());
    keys_.pop_back();
    items_.pop_back();
    if (i < keys_.size()) sift(i, key, std::move(item), hook, true);
  }
  /// Removes the front entry and returns its payload.
  template <class Hook>
  T pop(Hook&& hook) {
    T top = std::move(items_.front());
    erase(0, hook);
    return top;
  }
  void clear() {
    keys_.clear();
    items_.clear();
  }

 private:
  __extension__ using Bits = unsigned __int128;
  static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

  // Non-negative doubles get the sign bit flipped, negative ones every bit.
  static Bits encode(HeapKey k) {
    const auto b = std::bit_cast<std::uint64_t>(k.first + 0.0);
    const auto flip =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63) | kSign;
    return static_cast<Bits>(b ^ flip) << 64 | k.second;
  }
  static HeapKey decode(Bits k) {
    const auto b = static_cast<std::uint64_t>(k >> 64);
    const std::uint64_t flip = ((b >> 63) - 1) | kSign;
    return {std::bit_cast<double>(b ^ flip), static_cast<std::uint64_t>(k)};
  }

  /// Places (key, item) from a hole at `i`, whose old key is still stored:
  /// up when the key is smaller, else down (to a leaf first when erasing,
  /// then back up, no higher than `i`).
  template <class Hook>
  void sift(std::size_t i, Bits key, T item, Hook& hook, bool erasing) {
    std::size_t top = 0;
    if (!(key < keys_[i])) {
      top = i;
      const std::size_t n = keys_.size();
      for (std::size_t first; (first = Arity * i + 1) < n;) {
        const std::size_t child = min_child(first, n);
        if (!erasing && !(keys_[child] < key)) break;
        move_entry(i, child, hook);
        i = child;
      }
    }
    while (i > top) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(key < keys_[parent])) break;
      move_entry(i, parent, hook);
      i = parent;
    }
    keys_[i] = key;
    items_[i] = std::move(item);
    hook(items_[i], i);
  }

  std::size_t min_child(std::size_t first, std::size_t n) const {
    const Bits* k = keys_.data();
    if (Arity == 4 && first + 4 <= n) {
      const std::size_t a = first + (k[first + 1] < k[first]);
      const std::size_t b = first + 2 + (k[first + 3] < k[first + 2]);
      return k[b] < k[a] ? b : a;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < first + Arity && c < n; ++c)
      best = k[c] < k[best] ? c : best;
    return best;
  }

  template <class Hook>
  void move_entry(std::size_t to, std::size_t from, Hook& hook) {
    keys_[to] = keys_[from];
    items_[to] = std::move(items_[from]);
    hook(items_[to], to);
  }

  std::vector<Bits> keys_;
  std::vector<T> items_;
};

}  // namespace tir
