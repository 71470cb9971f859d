// Property tests for the bounded SPSC ring behind the serving host's
// per-shard ingest queues (common/spsc_ring.hpp).
//
// Single-threaded properties — capacity bounds, FIFO order, wraparound,
// all-or-nothing bulk transfers, full/empty edge transitions, resizing an
// empty ring — are checked exhaustively over awkward capacities (1,
// non-powers-of-two, exactly one frame). The concurrent properties run a real producer thread against a
// real consumer thread over seeded burst schedules: every element arrives
// exactly once, in order, and the observed occupancy never leaves
// [0, capacity]. The same binary runs under ASan and TSan (tools/
// run_checks.sh, tools/run_tsan.sh), which is where the memory-ordering
// contract is actually enforced.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/spsc_ring.hpp"

namespace airfinger::common {
namespace {

// peek(k) reads the element k places behind the head without consuming
// it — the host's drain loop uses it to look a record or two ahead —
// including across the wrap of the buffer.
TEST(SpscRing, PeekLooksAheadWithoutPopping) {
  SpscRing<int> ring(5);
  for (int round = 0; round < 4; ++round) {
    const int base = 10 * round;
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(base + i));
    for (int k = 0; k < 4; ++k) EXPECT_EQ(ring.peek(static_cast<std::size_t>(k)), base + k);
    EXPECT_EQ(ring.size(), 4u);
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, base);
    EXPECT_EQ(ring.peek(0), base + 1);
    EXPECT_EQ(ring.peek(2), base + 3);
    EXPECT_THROW(ring.peek(3), InvariantError);  // past the tail
    while (ring.try_pop(out)) {
    }
  }
}

TEST(SpscRing, RejectsZeroCapacity) {
  EXPECT_THROW(SpscRing<int>(0), PreconditionError);
}

TEST(SpscRing, EmptyFullEdgeTransitions) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));  // pop on empty: no effect
  EXPECT_EQ(out, -1);

  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_FALSE(ring.try_push(4));  // push on full: no effect
  EXPECT_EQ(ring.size(), 3u);

  // Full -> one free slot -> full again, then drain to empty.
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(ring.full());
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_TRUE(ring.full());
  for (const int expected : {2, 3, 4}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, CapacityOneDegeneratesToAMailbox) {
  SpscRing<std::uint64_t> ring(1);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.try_push(i));
    EXPECT_TRUE(ring.full());
    EXPECT_FALSE(ring.try_push(i + 1000));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
    EXPECT_TRUE(ring.empty());
  }
}

TEST(SpscRing, FifoOrderSurvivesManyWraparounds) {
  // Capacity 5 is deliberately not a power of two: slot = position %
  // capacity must stay correct as the monotone positions pass multiples
  // of 5 and of the internal buffer size.
  SpscRing<std::uint64_t> ring(5);
  std::mt19937_64 rng(42);
  std::uint64_t pushed = 0, popped = 0;
  while (popped < 10'000) {
    std::uint64_t burst = rng() % 5 + 1;
    for (std::uint64_t i = 0; i < burst; ++i)
      if (ring.try_push(pushed)) ++pushed;
    burst = rng() % 5 + 1;
    for (std::uint64_t i = 0; i < burst; ++i) {
      std::uint64_t out = 0;
      if (!ring.try_pop(out)) break;
      ASSERT_EQ(out, popped);  // strict FIFO: values are the sequence
      ++popped;
    }
    ASSERT_LE(ring.size(), ring.capacity());
  }
}

TEST(SpscRing, BulkTransfersAreAllOrNothing) {
  SpscRing<double> ring(6);  // two 3-wide frames
  const std::vector<double> frame_a{1.0, 2.0, 3.0};
  const std::vector<double> frame_b{4.0, 5.0, 6.0};
  const std::vector<double> frame_c{7.0, 8.0, 9.0};

  EXPECT_TRUE(ring.try_push(std::span<const double>(frame_a)));
  EXPECT_TRUE(ring.try_push(std::span<const double>(frame_b)));
  EXPECT_TRUE(ring.full());
  // A frame that does not fit is refused whole: no partial write.
  EXPECT_FALSE(ring.try_push(std::span<const double>(frame_c)));
  EXPECT_EQ(ring.size(), 6u);

  std::vector<double> out(3, 0.0);
  ASSERT_TRUE(ring.try_pop(std::span<double>(out)));
  EXPECT_EQ(out, frame_a);
  // One frame of room now exists; the refused frame fits whole.
  EXPECT_TRUE(ring.try_push(std::span<const double>(frame_c)));
  ASSERT_TRUE(ring.try_pop(std::span<double>(out)));
  EXPECT_EQ(out, frame_b);
  ASSERT_TRUE(ring.try_pop(std::span<double>(out)));
  EXPECT_EQ(out, frame_c);
  EXPECT_TRUE(ring.empty());

  // A span wider than the whole ring can never fit.
  const std::vector<double> too_wide(7, 0.0);
  EXPECT_FALSE(ring.try_push(std::span<const double>(too_wide)));
  EXPECT_TRUE(ring.empty());
  // Popping more than is queued fails without consuming anything.
  ASSERT_TRUE(ring.try_push(std::span<const double>(frame_a)));
  std::vector<double> six(6, 0.0);
  EXPECT_FALSE(ring.try_pop(std::span<double>(six)));
  EXPECT_EQ(ring.size(), 3u);
  // Empty spans are trivially satisfied on both ends.
  EXPECT_TRUE(ring.try_push(std::span<const double>()));
  EXPECT_TRUE(ring.try_pop(std::span<double>()));
  EXPECT_EQ(ring.size(), 3u);
}

TEST(SpscRing, DiscardAllCountsAndEmpties) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.discard_all(), 0u);
  ring.try_push(1);
  ring.try_push(2);
  ring.try_push(3);
  EXPECT_EQ(ring.discard_all(), 3u);
  EXPECT_TRUE(ring.empty());
  // The ring stays usable after a discard (positions are monotone).
  EXPECT_TRUE(ring.try_push(9));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 9);
}

TEST(SpscRing, ResizeReshapesAnEmptyRingOnly) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(1));
  EXPECT_THROW(ring.resize(4), PreconditionError);  // not empty
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_THROW(ring.resize(0), PreconditionError);

  // Grown in place after traffic moved the positions: the new capacity
  // binds exactly, and FIFO order survives wraparound at the new size.
  ring.resize(5);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_TRUE(ring.empty());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(round * 10 + i));
    EXPECT_FALSE(ring.try_push(99));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  ring.resize(1);  // shrinking works the same way
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_FALSE(ring.try_push(8));
}

/// Drives one producer thread against one consumer thread with seeded
/// burst sizes and yields, checking that the consumer sees exactly the
/// sequence 0..total-1 in order and that occupancy stays within bounds.
void run_seeded_interleaving(std::size_t capacity, std::uint64_t total,
                             std::uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", seed " +
               std::to_string(seed));
  SpscRing<std::uint64_t> ring(capacity);
  std::atomic<bool> ok{true};

  std::thread producer([&] {
    std::mt19937_64 rng(seed);
    std::uint64_t next = 0;
    while (next < total) {
      const std::uint64_t burst = rng() % 7 + 1;
      for (std::uint64_t i = 0; i < burst && next < total; ++i)
        if (ring.try_push(next)) ++next;
      if (rng() % 3 == 0) std::this_thread::yield();
    }
  });

  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uint64_t expected = 0;
  while (expected < total) {
    const std::uint64_t burst = rng() % 7 + 1;
    for (std::uint64_t i = 0; i < burst && expected < total; ++i) {
      std::uint64_t out = 0;
      if (!ring.try_pop(out)) break;
      if (out != expected) {
        ok.store(false);
        break;
      }
      ++expected;
    }
    if (ring.size() > capacity) ok.store(false);
    if (!ok.load()) break;
    if (rng() % 3 == 0) std::this_thread::yield();
  }

  producer.join();
  EXPECT_TRUE(ok.load()) << "order or bound violated at element "
                         << expected;
  EXPECT_EQ(expected, total);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SeededTwoThreadInterleavingsPreserveOrder) {
  // Tight capacities maximize full/empty edge transitions — the racy
  // paths where the cached-position refresh and the release/acquire
  // publish actually matter. TSan checks the ordering contract here.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{8}})
    for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL})
      run_seeded_interleaving(capacity, 20'000, seed);
}

TEST(SpscRing, ConcurrentBulkFramesStayFrameAligned) {
  // The host's usage shape: every transfer exactly one fixed-width record
  // (here a 3-wide frame of doubles). Frame k carries {3k, 3k+1, 3k+2};
  // any torn or misaligned transfer shows up as a value mismatch.
  constexpr std::size_t kChannels = 3;
  constexpr std::uint64_t kFrames = 30'000;
  SpscRing<double> ring(8 * kChannels);
  std::atomic<bool> ok{true};

  std::thread producer([&] {
    std::mt19937_64 rng(99);
    std::vector<double> frame(kChannels);
    std::uint64_t sent = 0;
    while (sent < kFrames) {
      for (std::size_t c = 0; c < kChannels; ++c)
        frame[c] = static_cast<double>(sent * kChannels + c);
      if (ring.try_push(std::span<const double>(frame))) ++sent;
      if (rng() % 5 == 0) std::this_thread::yield();
    }
  });

  std::vector<double> frame(kChannels);
  std::uint64_t received = 0;
  while (received < kFrames && ok.load()) {
    if (!ring.try_pop(std::span<double>(frame))) continue;
    for (std::size_t c = 0; c < kChannels; ++c)
      if (frame[c] != static_cast<double>(received * kChannels + c))
        ok.store(false);
    ++received;
  }
  producer.join();
  EXPECT_TRUE(ok.load()) << "frame " << received << " torn or reordered";
  EXPECT_EQ(received, kFrames);
}

}  // namespace
}  // namespace airfinger::common
