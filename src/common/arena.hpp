// Chunked bump allocator for per-stream scratch memory (DESIGN.md §11).
//
// The inference hot path evaluates dozens of short-lived numeric arrays per
// frame (smoothed envelopes, asymmetry paths, feature rows). Allocating
// them from the general heap costs a malloc/free pair each — and worse,
// makes per-frame latency depend on allocator state. A ScratchArena turns
// all of them into pointer bumps inside blocks that are retained across
// frames: after a short warmup the arena reaches its high-water mark and
// the steady state performs zero heap allocations.
//
// Properties the callers rely on:
//   - *Stable spans.* Growth appends a new block; existing blocks never
//     move, so spans handed out earlier stay valid while their frame is
//     open (unlike a std::vector-backed bump allocator).
//   - *Frame rewind.* ScratchArena::Frame is an RAII mark/rewind pair:
//     everything allocated after the mark is reclaimed (not freed) when
//     the frame is destroyed. Frames nest.
//   - *No destructors.* alloc<T>() requires trivially destructible T;
//     rewinding is a pointer reset, never a destructor walk.
//
// Arenas are single-threaded by design: each thread owns one, shared by
// every Session it serves (features::thread_workspace()). Sharing one
// across threads is a data race.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace airfinger::common {

/// Bump allocator over a chain of geometrically growing blocks.
class ScratchArena {
 public:
  /// `initial_bytes` sizes the first block (allocated lazily on first use).
  explicit ScratchArena(std::size_t initial_bytes = 1 << 16);

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  /// Allocates `count` value-initialized (zeroed, for arithmetic types)
  /// elements. The span stays valid until the enclosing Frame is rewound
  /// (or reset() is called). T must be trivially destructible.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "ScratchArena never runs destructors");
    if (count == 0) return {};
    void* p = allocate_bytes(count * sizeof(T), alignof(T));
    T* data = static_cast<T*>(p);
    std::uninitialized_value_construct_n(data, count);
    return {data, count};
  }

  /// RAII mark/rewind: reclaims everything allocated after construction.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(&arena),
          block_(arena.current_),
          used_(arena.blocks_.empty() ? 0 : arena.blocks_[block_].used) {}
    ~Frame() { arena_->rewind(block_, used_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena* arena_;
    std::size_t block_;
    std::size_t used_;
  };

  /// Opens a frame scoped to the caller.
  Frame frame() { return Frame(*this); }

  /// Rewinds everything (all blocks are kept for reuse).
  void reset() { rewind(0, 0); }

  /// Bytes currently reserved across all blocks (the high-water footprint).
  std::size_t capacity_bytes() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_bytes(std::size_t bytes, std::size_t align);
  void rewind(std::size_t block, std::size_t used);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // index of the block being bumped
  std::size_t initial_bytes_;
};

}  // namespace airfinger::common
