// Bounded single-producer / single-consumer ring buffer.
//
// The serving host's per-shard ingest queues need a queue that is (a)
// fixed-capacity — admission control wants a hard bound, and the
// steady-state path must not allocate — and (b) wait-free on both ends for
// exactly one producer and one consumer thread. This is the classic Lamport
// ring with monotonically increasing 64-bit positions (slot = position
// modulo capacity, so capacity does not need to be a power of two) plus the
// standard refinement of caching the opposite end's position: the producer
// re-reads the consumer's `head_` only when its cached copy says the ring
// looks full, and the consumer re-reads `tail_` only when it looks empty,
// so steady-state pushes and pops touch a single shared atomic each.
//
// Memory ordering contract: the producer writes payload slots and then
// publishes them with a release store of `tail_`; the consumer acquires
// `tail_` before reading the slots, and releases `head_` after it is done
// so the producer may overwrite them. This is the same publish/consume
// pattern TSan verifies on the obs::EventRing tests, here with two threads.
//
// Bulk operations are all-or-nothing: `try_push(span)` either enqueues the
// whole span or nothing, which is how the host keeps fixed-width records
// aligned in a ring of words (capacity a multiple of the record width,
// pushes and pops always one record wide). Each end also keeps its
// position's slot index, advanced by the span width and wrapped by one
// subtraction, so a transfer divides nothing: it copies in at most two
// contiguous pieces (the second only when it wraps past the buffer end).
//
// Not a general MPMC queue: exactly one thread may push and exactly one
// may pop at a time. Ownership of an end may migrate between threads only
// through an external happens-before edge (the host's park/unpark mutex).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace airfinger::common {

template <typename T>
class SpscRing {
  static_assert(std::is_nothrow_copy_assignable_v<T>,
                "SpscRing requires nothrow-copyable elements");

 public:
  /// Allocates storage for exactly `capacity` elements (>= 1). Apart from
  /// resize(), construction is the only allocation the ring performs.
  explicit SpscRing(std::size_t capacity) : buffer_(capacity) {
    AF_EXPECT(capacity >= 1, "SpscRing capacity must be >= 1");
  }

  std::size_t capacity() const { return buffer_.size(); }

  /// Re-sizes an empty ring to `capacity` elements (>= 1), re-using the
  /// storage when it is large enough. Not thread-safe: the caller must own
  /// both ends, with a happens-before edge to whichever threads take them
  /// over next (the host grows a shard's queue at quiescence).
  void resize(std::size_t capacity) {
    AF_EXPECT(capacity >= 1, "SpscRing capacity must be >= 1");
    AF_EXPECT(empty(), "SpscRing can only be resized while empty");
    buffer_.resize(capacity);
    tail_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    cached_head_ = 0;
    cached_tail_ = 0;
    tail_slot_ = 0;
    head_slot_ = 0;
  }

  /// Elements currently queued. Exact from either owning thread when the
  /// other end is quiescent; a consistent lower/upper bound while both
  /// ends run (each position is monotone, so the difference never reads
  /// negative or above capacity).
  std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty() const { return size() == 0; }
  bool full() const { return size() == capacity(); }

  // ------------------------------------------------------------ producer

  /// Enqueues one element; false (and no effect) when the ring is full.
  bool try_push(const T& value) {
    return try_push(std::span<const T>(&value, 1));
  }

  /// Enqueues the whole span or nothing. Spans wider than the capacity can
  /// never fit and always fail.
  bool try_push(std::span<const T> values) {
    const std::size_t n = values.size();
    if (n == 0) return true;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (free_slots(tail) < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (free_slots(tail) < n) return false;
    }
    const std::size_t first = std::min(n, buffer_.size() - tail_slot_);
    std::copy_n(values.begin(), first, buffer_.begin() + tail_slot_);
    std::copy_n(values.begin() + first, n - first, buffer_.begin());
    tail_slot_ = advance(tail_slot_, n);
    tail_.store(tail + n, std::memory_order_release);
    return true;
  }

  // ------------------------------------------------------------ consumer

  /// Dequeues one element; false (and no effect) when the ring is empty.
  bool try_pop(T& out) { return try_pop(std::span<T>(&out, 1)); }

  /// Dequeues exactly `out.size()` elements or nothing.
  bool try_pop(std::span<T> out) {
    const std::size_t n = out.size();
    if (n == 0) return true;
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (queued(head) < n) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (queued(head) < n) return false;
    }
    const std::size_t first = std::min(n, buffer_.size() - head_slot_);
    std::copy_n(buffer_.begin() + head_slot_, first, out.begin());
    std::copy_n(buffer_.begin(), n - first, out.begin() + first);
    head_slot_ = advance(head_slot_, n);
    head_.store(head + n, std::memory_order_release);
    return true;
  }

  /// The element `offset` places behind the head, without popping it; the
  /// caller knows that many are queued (a consumer looking ahead within a
  /// batch it has sized). Consumer-side operation.
  T peek(std::size_t offset) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (queued(head) <= offset) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      AF_ASSERT(queued(head) > offset, "SpscRing::peek past the tail");
    }
    return buffer_[advance(head_slot_, offset)];
  }

  /// Discards everything queued, returning how many elements were thrown
  /// away. Consumer-side operation (it advances `head_`).
  std::size_t discard_all() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    const auto n = static_cast<std::size_t>(cached_tail_ - head);
    if (n != 0) {
      head_slot_ = advance(head_slot_, n);
      head_.store(cached_tail_, std::memory_order_release);
    }
    return n;
  }

 private:
  std::size_t free_slots(std::uint64_t tail) const {
    return buffer_.size() - static_cast<std::size_t>(tail - cached_head_);
  }
  std::size_t queued(std::uint64_t head) const {
    return static_cast<std::size_t>(cached_tail_ - head);
  }
  /// Slot `n` (<= capacity) elements past `slot`.
  std::size_t advance(std::size_t slot, std::size_t n) const {
    slot += n;
    return slot >= buffer_.size() ? slot - buffer_.size() : slot;
  }

  // Field layout is cache-line-conscious: the buffer header (read-only
  // while either end is in use) shares the leading line; each end then owns
  // exactly one 64-byte line holding its published position *and* its
  // cached copy of the opposite position. A steady-state push touches the
  // producer line only (plus payload slots); a pop the consumer line —
  // the two ends never write the same line, and because alignof == 64
  // the trailing line is padded out, whatever the containing object
  // places after the ring cannot false-share with the consumer's fields.
  std::vector<T> buffer_;
  /// Producer line: tail_ is the producer position (monotone); elements
  /// [head_, tail_) are queued. cached_head_ is the producer's copy of
  /// head_, refreshed only on apparent full; tail_slot_ is tail_ %
  /// capacity.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  std::size_t tail_slot_ = 0;
  /// Consumer line: head_ is the consumer position (monotone);
  /// cached_tail_ its copy of tail_, refreshed only on apparent empty;
  /// head_slot_ is head_ % capacity.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
  std::size_t head_slot_ = 0;
};

static_assert(alignof(SpscRing<double>) == 64 &&
                  sizeof(SpscRing<double>) % 64 == 0,
              "ring ends must own whole cache lines (no false sharing)");

}  // namespace airfinger::common
