// Packed action storage: what a materialised TraceSet holds per process.
//
// An Action is the value type cursors, the replay actor and writers pass
// around: 40 bytes, about 2.5x the text line it was parsed from. A
// materialised trace stores each action as a 16-byte PackedAction instead:
// its volume, a 32-bit aux field and its type. The stream's owner supplies
// the pid, and aux holds whatever else the type carries:
//
//   send, isend, recv, irecv   the partner
//   comm_size                  the communicator size
//   reduce, allreduce          an index into the stream's volume2 table
//
// A *canonical* action is one those fields describe whole: its pid is the
// owner, its partner is -1 unless its type has one, its comm_size is 0
// unless it is a comm_size, and its volume2 is +0.0 unless it is a
// reduction. Anything else (a split file's foreign record pid, a partner on
// a compute, a volume2 on a send) is kept whole in a side table and its
// record marked kWholeAction, so every Action comes back bit for bit.
#pragma once

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "support/error.hpp"
#include "trace/action.hpp"

namespace tir::trace {

/// One stored action.
struct PackedAction {
  double volume = 0.0;
  std::int32_t aux = 0;    ///< partner, comm_size or a side-table index
  std::uint8_t type = 0;   ///< the ActionType
  std::uint8_t flags = 0;  ///< kWholeAction: aux indexes the whole table
  std::uint8_t spare[2] = {};
};
static_assert(sizeof(PackedAction) == 16, "a packed action is 16 bytes");

/// PackedAction::flags bit: the action is stored whole in the side table.
constexpr std::uint8_t kWholeAction = 0x01;

/// One process's actions, packed. Appending packs, indexing unpacks; the
/// stored sequence is element-identical to the Actions appended.
class PackedActions {
 public:
  /// `owner` is the process whose stream this is: the pid its canonical
  /// actions carry.
  explicit PackedActions(int owner = 0) : owner_(owner) {}

  std::size_t size() const { return records_.size(); }
  const PackedAction* data() const { return records_.data(); }

  void reserve(std::size_t n) { records_.reserve(n); }

  void push_back(const Action& a) {
    PackedAction r;
    r.volume = a.volume;
    r.type = static_cast<std::uint8_t>(a.type);
    if (!canonical(a)) {
      r.flags = kWholeAction;
      r.aux = side_index(whole_.size());
      whole_.push_back(a);
    } else if (has_partner(a.type)) {
      r.aux = a.partner;
    } else if (a.type == ActionType::comm_size) {
      r.aux = a.comm_size;
    } else if (is_reduction(a.type)) {
      r.aux = side_index(volume2_.size());
      volume2_.push_back(a.volume2);
    }
    records_.push_back(r);
  }

  /// Appends `times` more copies of the last `n` records: a compact loop
  /// body packed once and repeated. The copies share the body's side-table
  /// entries.
  void repeat_tail(std::size_t n, std::uint64_t times) {
    if (n == 0 || times == 0) return;
    const std::size_t first = records_.size() - n;
    records_.reserve(records_.size() + static_cast<std::size_t>(times) * n);
    for (std::uint64_t t = 0; t < times; ++t)
      for (std::size_t i = 0; i < n; ++i)
        records_.push_back(records_[first + i]);
  }

  Action unpack(const PackedAction& r) const {
    if (r.flags & kWholeAction) return whole_[static_cast<std::size_t>(r.aux)];
    Action a;
    a.pid = owner_;
    a.type = static_cast<ActionType>(r.type);
    a.volume = r.volume;
    if (has_partner(a.type))
      a.partner = r.aux;
    else if (a.type == ActionType::comm_size)
      a.comm_size = r.aux;
    else if (is_reduction(a.type))
      a.volume2 = volume2_[static_cast<std::size_t>(r.aux)];
    return a;
  }

  Action operator[](std::size_t i) const { return unpack(records_[i]); }

  /// Drops spare capacity, so resident_bytes() is what the stream needs.
  void shrink_to_fit() {
    records_.shrink_to_fit();
    volume2_.shrink_to_fit();
    whole_.shrink_to_fit();
  }

  /// Heap bytes held: the records plus both side tables.
  std::uint64_t resident_bytes() const {
    return records_.capacity() * sizeof(PackedAction) +
           volume2_.capacity() * sizeof(double) +
           whole_.capacity() * sizeof(Action);
  }

 private:
  static bool has_partner(ActionType t) {
    return t == ActionType::send || t == ActionType::isend ||
           t == ActionType::recv || t == ActionType::irecv;
  }

  static bool is_reduction(ActionType t) {
    return t == ActionType::reduce || t == ActionType::allreduce;
  }

  bool canonical(const Action& a) const {
    return a.pid == owner_ &&
           static_cast<unsigned>(a.type) < kActionTypes &&
           (has_partner(a.type) || a.partner == -1) &&
           (a.type == ActionType::comm_size || a.comm_size == 0) &&
           (is_reduction(a.type) ||
            std::bit_cast<std::uint64_t>(a.volume2) == 0);
  }

  static std::int32_t side_index(std::size_t size) {
    if (size > static_cast<std::size_t>(
                   std::numeric_limits<std::int32_t>::max()))
      throw Error("trace stream too large to pack: over 2^31 side entries");
    return static_cast<std::int32_t>(size);
  }

  int owner_;
  std::vector<PackedAction> records_;
  std::vector<double> volume2_;  ///< reduce / allreduce vcomp
  std::vector<Action> whole_;    ///< actions that are not canonical
};

/// Read-only view of one process's packed actions, yielding Action values.
/// Valid as long as the TraceSet storage it came from.
class ActionView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Action;
    using difference_type = std::ptrdiff_t;
    using reference = Action;
    using pointer = void;

    iterator() = default;
    iterator(const PackedActions* store, std::size_t i)
        : store_(store), i_(i) {}

    Action operator*() const { return (*store_)[i_]; }
    Action operator[](difference_type n) const {
      return (*store_)[i_ + static_cast<std::size_t>(n)];
    }

    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type n) {
      i_ += static_cast<std::size_t>(n);
      return *this;
    }
    iterator& operator-=(difference_type n) {
      i_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const PackedActions* store_ = nullptr;
    std::size_t i_ = 0;
  };
  using const_iterator = iterator;
  using value_type = Action;
  using size_type = std::size_t;

  explicit ActionView(const PackedActions& store) : store_(&store) {}

  std::size_t size() const { return store_->size(); }
  bool empty() const { return store_->size() == 0; }
  Action operator[](std::size_t i) const { return (*store_)[i]; }
  iterator begin() const { return {store_, 0}; }
  iterator end() const { return {store_, store_->size()}; }

  /// The stored records: equal for two views of the same storage.
  const PackedAction* data() const { return store_->data(); }

  friend bool operator==(const ActionView& view,
                         const std::vector<Action>& actions) {
    if (view.size() != actions.size()) return false;
    for (std::size_t i = 0; i < actions.size(); ++i)
      if (!(view[i] == actions[i])) return false;
    return true;
  }

 private:
  const PackedActions* store_;
};

}  // namespace tir::trace
