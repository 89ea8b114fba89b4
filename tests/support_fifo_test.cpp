#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "support/fifo.hpp"
#include "support/rng.hpp"

using tir::Fifo;

TEST(FifoTest, MatchesADequeUnderRandomPushPopAndErase) {
  // The replay's FIFOs push at the back, pop at the front and erase a
  // matched element from the middle; order must be a deque's throughout,
  // across the compactions that reuse the storage.
  tir::Rng rng(11);
  Fifo<int> fifo;
  std::deque<int> ref;
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.next_double();
    // Drift between short and long queues so both compaction and growth
    // happen.
    const bool grow = (step / 500) % 2 == 0;
    if (ref.empty() || dice < (grow ? 0.6 : 0.35)) {
      fifo.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (dice < 0.85) {
      ASSERT_EQ(fifo.front(), ref.front());
      fifo.pop_front();
      ref.pop_front();
    } else {
      const auto i = static_cast<long>(rng.next_below(ref.size()));
      fifo.erase(fifo.begin() + i);
      ref.erase(ref.begin() + i);
    }
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_EQ(fifo.empty(), ref.empty());
    ASSERT_TRUE(std::equal(fifo.begin(), fifo.end(), ref.begin(), ref.end()))
        << "step " << step;
  }
}

TEST(FifoTest, PopReleasesTheValueAtOnce) {
  Fifo<std::shared_ptr<int>> fifo;
  const auto value = std::make_shared<int>(7);
  fifo.push_back(value);
  fifo.push_back(std::make_shared<int>(8));
  EXPECT_EQ(value.use_count(), 2);
  fifo.pop_front();
  EXPECT_EQ(value.use_count(), 1);
  EXPECT_EQ(*fifo.front(), 8);
}
