#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "support/heap.hpp"
#include "support/rng.hpp"

using tir::Heap;
using tir::HeapKey;

namespace {

using Oracle = std::set<std::pair<double, std::uint64_t>>;

/// Ids 0..capacity-1 move in and out of a Heap<int> and a std::set oracle
/// under a random stream of push, update, erase and pop. The hook writes
/// each id's slot into `pos`; after every operation the front matches the
/// oracle's least key and every live id sits at the slot its back-pointer
/// names, under its own key.
template <std::size_t Arity, class MakeKey>
void run_against_oracle(std::uint64_t seed, int ops, int capacity,
                        MakeKey make_key) {
  tir::Rng rng(seed);
  Heap<int, Arity> heap;
  Oracle oracle;
  std::vector<std::int64_t> pos(static_cast<std::size_t>(capacity), -1);
  std::vector<HeapKey> keys(static_cast<std::size_t>(capacity));
  std::vector<int> live, free_ids;
  for (int id = capacity - 1; id >= 0; --id) free_ids.push_back(id);
  const auto hook = [&pos](int id, std::size_t i) {
    pos[static_cast<std::size_t>(id)] = static_cast<std::int64_t>(i);
  };
  const auto drop_live = [&](int id) {
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (live[k] != id) continue;
      live[k] = live.back();
      live.pop_back();
      break;
    }
    pos[static_cast<std::size_t>(id)] = -1;
    free_ids.push_back(id);
  };
  const auto as_pair = [](const HeapKey& k) {
    return std::make_pair(k.first, k.second);
  };

  for (int step = 0; step < ops; ++step) {
    // Drift between a nearly empty and a nearly full heap.
    const bool grow = (step / 2000) % 2 == 0;
    const double dice = rng.next_double();
    if (live.empty() || (!free_ids.empty() && dice < (grow ? 0.45 : 0.2))) {
      const int id = free_ids.back();
      free_ids.pop_back();
      const HeapKey key = make_key(rng, id);
      keys[static_cast<std::size_t>(id)] = key;
      ASSERT_TRUE(oracle.insert(as_pair(key)).second) << "keys must be unique";
      heap.push(key, id, hook);
      live.push_back(id);
    } else if (dice < 0.6) {
      const int id = live[rng.next_below(live.size())];
      const HeapKey key = make_key(rng, id);
      oracle.erase(as_pair(keys[static_cast<std::size_t>(id)]));
      ASSERT_TRUE(oracle.insert(as_pair(key)).second);
      keys[static_cast<std::size_t>(id)] = key;
      heap.update(static_cast<std::size_t>(pos[static_cast<std::size_t>(id)]),
                  key, hook);
    } else if (dice < 0.8) {
      const int id = live[rng.next_below(live.size())];
      oracle.erase(as_pair(keys[static_cast<std::size_t>(id)]));
      heap.erase(static_cast<std::size_t>(pos[static_cast<std::size_t>(id)]),
                 hook);
      drop_live(id);
    } else {
      const auto least = *oracle.begin();
      const int id = heap.pop(hook);
      ASSERT_EQ(as_pair(keys[static_cast<std::size_t>(id)]), least)
          << "step " << step;
      oracle.erase(oracle.begin());
      drop_live(id);
    }

    ASSERT_EQ(heap.size(), oracle.size()) << "step " << step;
    if (!oracle.empty()) {
      ASSERT_EQ(as_pair(heap.front_key()), *oracle.begin()) << "step " << step;
      ASSERT_EQ(as_pair(keys[static_cast<std::size_t>(heap.front())]),
                *oracle.begin());
    }
    for (const int id : live) {
      const std::int64_t slot = pos[static_cast<std::size_t>(id)];
      ASSERT_GE(slot, 0);
      ASSERT_LT(static_cast<std::size_t>(slot), heap.size());
      ASSERT_EQ(heap[static_cast<std::size_t>(slot)], id) << "step " << step;
      ASSERT_EQ(as_pair(heap.key(static_cast<std::size_t>(slot))),
                as_pair(keys[static_cast<std::size_t>(id)]));
    }
  }

  // Drain: the rest comes out in the oracle's order.
  while (!oracle.empty()) {
    const int id = heap.pop(hook);
    ASSERT_EQ(as_pair(keys[static_cast<std::size_t>(id)]), *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(heap.empty());
}

/// (time, seq): few distinct times, so most comparisons fall to the seq.
/// A re-key takes a fresh seq, as a re-rated fluid does. Besides times the
/// set holds both zeros (equal, so the seq decides), negatives and
/// infinities, to pin the encoded order to the numeric one.
struct TimeSeqKeys {
  std::uint64_t seq = 0;
  HeapKey operator()(tir::Rng& rng, int) {
    static const double kTimes[] = {
        0.0,  -0.0, 0.25, 0.5, 0.75, 1.0, 1e300, -0.25, -1e-300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min()};
    return {kTimes[rng.next_below(std::size(kTimes))], seq++};
  }
};

/// (share, id): a resource keeps its id and takes one of a few shares.
HeapKey share_id_key(tir::Rng& rng, int id) {
  static const double kShares[] = {1.25e9 / 3, 1.25e9 / 7, 1.25e9 / 3,
                                   1.25e8, 1e9 / 3, 1.25e9};
  return {kShares[rng.next_below(6)], static_cast<std::uint64_t>(id)};
}

}  // namespace

TEST(HeapTest, TimeSeqKeysMatchASetOracle) {
  run_against_oracle<4>(31, 120000, 300, TimeSeqKeys{});
  run_against_oracle<2>(32, 120000, 300, TimeSeqKeys{});
}

TEST(HeapTest, ShareIdKeysMatchASetOracle) {
  run_against_oracle<4>(33, 120000, 300, share_id_key);
  run_against_oracle<2>(34, 120000, 300, share_id_key);
}

TEST(HeapTest, KeysComeBackAsPushed) {
  const auto no_slot = [](int, std::size_t) {};
  // front_key() and key() decode what push stored: every finite and
  // infinite double but -0.0, which reads back as the equal +0.0.
  Heap<int> heap;
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {3.5, -2.0, 0.0,  1e-310,
                           -inf, inf,  0.081866314740069598};
  int id = 0;
  for (const double v : values) heap.push({v, 7}, id++, no_slot);
  heap.push({-0.0, 1}, id, no_slot);
  EXPECT_EQ(heap.front_key().first, -inf);
  std::vector<double> popped;
  while (!heap.empty()) {
    popped.push_back(heap.front_key().first);
    EXPECT_EQ(heap.front_key().second, heap.front() == id ? 1u : 7u);
    heap.pop(no_slot);
  }
  const std::vector<double> expected = {-inf, -2.0, 0.0, 0.0, 1e-310,
                                        0.081866314740069598, 3.5, inf};
  EXPECT_EQ(popped, expected);
  // Both zeros read +0.0; the folded -0.0 (seq 1) popped first.
  EXPECT_FALSE(std::signbit(popped[2]));
  EXPECT_FALSE(std::signbit(popped[3]));
}

namespace {

// The engine's share-group member heap before it moved onto Heap<T, 2>,
// verbatim but for the payload: binary, sift up then down from the slot.
struct Member {
  double key;
  std::uint64_t seq;
  int id;
};

void member_sift(std::vector<Member>& members, std::size_t i) {
  const auto before = [](const Member& a, const Member& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };
  const Member m = members[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(m, members[parent])) break;
    members[i] = members[parent];
    i = parent;
  }
  const std::size_t n = members.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(members[child + 1], members[child])) ++child;
    if (!before(members[child], m)) break;
    members[i] = members[child];
    i = child;
  }
  members[i] = m;
}

}  // namespace

TEST(HeapTest, BinaryLayoutRepeatsTheMemberHeapSlotForSlot) {
  // group_dissolve walks a share group's members in array order, so the
  // binary heap must leave every entry where the old member heap did: joins
  // push, leaves erase any slot (the head included), a dissolve clears.
  tir::Rng rng(35);
  Heap<int, 2> heap;
  std::vector<Member> reference;
  std::vector<std::int64_t> pos(400, -1);
  const auto hook = [&pos](int id, std::size_t i) {
    pos[static_cast<std::size_t>(id)] = static_cast<std::int64_t>(i);
  };
  std::vector<int> free_ids;
  for (int id = 399; id >= 0; --id) free_ids.push_back(id);
  std::uint64_t seq = 0;
  for (int step = 0; step < 150000; ++step) {
    const bool grow = (step / 3000) % 2 == 0;
    const double dice = rng.next_double();
    if (dice < 0.0005) {
      for (const Member& m : reference) free_ids.push_back(m.id);
      reference.clear();
      heap.clear();
    } else if (reference.empty() ||
               (!free_ids.empty() && dice < (grow ? 0.6 : 0.35))) {
      const int id = free_ids.back();
      free_ids.pop_back();
      // Keys as V + remaining: a few clock values, a few sizes, many ties.
      const double key = 1e3 * static_cast<double>(rng.next_below(5)) +
                         1e6 * static_cast<double>(rng.next_below(4));
      reference.push_back(Member{key, seq, id});
      member_sift(reference, reference.size() - 1);
      heap.push({key, seq}, id, hook);
      ++seq;
    } else {
      const std::size_t i = rng.next_below(reference.size());
      const int id = reference[i].id;
      ASSERT_EQ(pos[static_cast<std::size_t>(id)],
                static_cast<std::int64_t>(i));
      const Member last = reference.back();
      reference.pop_back();
      if (i < reference.size()) {
        reference[i] = last;
        member_sift(reference, i);
      }
      heap.erase(i, hook);
      free_ids.push_back(id);
    }
    ASSERT_EQ(heap.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(heap[i], reference[i].id) << "step " << step << " slot " << i;
      ASSERT_EQ(heap.key(i).first, reference[i].key);
      ASSERT_EQ(heap.key(i).second, reference[i].seq);
      ASSERT_EQ(pos[static_cast<std::size_t>(reference[i].id)],
                static_cast<std::int64_t>(i));
    }
  }
}

TEST(HeapTest, APayloadHandedOnInPlaceKeepsItsSlotsKey) {
  // reschedule_host hands a host's entry to a new head exec in place.
  Heap<int> heap;
  std::vector<std::int64_t> pos(4, -1);
  const auto hook = [&pos](int id, std::size_t i) {
    pos[static_cast<std::size_t>(id)] = static_cast<std::int64_t>(i);
  };
  heap.push({2.0, 0}, 0, hook);
  heap.push({1.0, 1}, 1, hook);
  heap.push({3.0, 2}, 2, hook);
  const auto slot = static_cast<std::size_t>(pos[1]);
  heap[slot] = 3;
  pos[3] = std::exchange(pos[1], -1);
  EXPECT_EQ(heap.front(), 3);
  EXPECT_EQ(heap.front_key().first, 1.0);
  heap.update(static_cast<std::size_t>(pos[3]), {2.5, 3}, hook);
  EXPECT_EQ(heap.pop(hook), 0);
  EXPECT_EQ(heap.pop(hook), 3);
  EXPECT_EQ(heap.pop(hook), 2);
  EXPECT_TRUE(heap.empty());
}
