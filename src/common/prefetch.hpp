// Software prefetch hints for the serving host's lookahead.
//
// A hint never faults and never changes a result: it only asks the cache
// to start loading a line the caller is about to write. The host issues
// them a record or two ahead of the frame that touches the lines, so the
// loads overlap the current frame's work (DESIGN.md §19).
#pragma once

#include <cstddef>
#include <cstdint>

namespace airfinger::common {

inline constexpr std::size_t kCacheLine = 64;

/// Hints the line holding `p` for writing.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, 1, 3);
#else
  static_cast<void>(p);
#endif
}

/// Hints every line that [p, p + bytes) touches.
inline void prefetch_range(const void* p, std::size_t bytes) {
  if (bytes == 0) return;
  const auto first = reinterpret_cast<std::uintptr_t>(p) & ~(kCacheLine - 1);
  const auto last = reinterpret_cast<std::uintptr_t>(p) + bytes - 1;
  for (std::uintptr_t line = first; line <= last; line += kCacheLine)
    prefetch(reinterpret_cast<const void*>(line));
}

}  // namespace airfinger::common
