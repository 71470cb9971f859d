// Process memory accounting for the benchmark binary: a counting global
// operator new (allocations and live heap bytes) and resident set size
// from /proc/self/statm.
#pragma once

#include <cstdint>

namespace airfinger::perfbench {

/// Heap allocations made through operator new since process start.
std::uint64_t allocation_count();

/// Bytes currently held by operator-new allocations (usable sizes).
std::int64_t live_heap_bytes();

/// Resident set size in bytes (0 when /proc is unavailable).
std::uint64_t resident_bytes();

/// Returns free heap pages to the system, so a following resident-size
/// reading counts only memory in use.
void release_free_heap();

}  // namespace airfinger::perfbench
