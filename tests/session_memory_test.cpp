// Per-session heap accounting for the serving path, measured with a
// counting global operator new (live bytes by malloc_usable_size, net of
// frees). A Session keeps only per-stream state: the decision core's
// scratch arena belongs to the thread (features::thread_workspace()), and
// the session keeps no ΔRSS² beyond the open segment. So after a warm-up
// replay has sized the thread's arena, a fresh Session that replays a
// recording holds less than a fixed ceiling, and a second replay after
// reset() touches the heap not at all. The metric schema is the process's,
// so a Session copies only metric values, and the host sums its lanes'
// registries in place.
//
// This binary replaces the global allocation functions, so it is built
// alone and links nothing that replaces them too.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size ? size : 1)
                : std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
  if (!p) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms are replaced too, so every allocation is counted and
// released by the same pair.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace airfinger {
namespace {

/// Live-heap ceiling for one Session after replaying the fixture stream:
/// about 10% above the 78,664 bytes it holds on x86-64 Linux with glibc
/// (observability, segmenter calibration ring, open-segment view, timing
/// cache). A session that kept a whole-stream ΔRSS² copy or its own
/// scratch arena would hold well over 100 KiB more, and one that
/// registered its own copy of the metric schema about 9 KB more.
constexpr std::int64_t kSessionHeapCeiling = 85 * 1024;

/// Allocation ceiling for constructing a Session once the process's metric
/// schema exists: about 10% above the 17 it makes on x86-64 Linux with
/// glibc. A Session that registered its own schema made 129.
constexpr std::uint64_t kSessionConstructAllocCeiling = 19;

struct Fixture {
  std::shared_ptr<const core::ModelBundle> bundle;
  synth::GestureStream stream;
};

/// A small trained bundle and a fixed-seed stream of all eight gestures
/// plus unintentional motions, built before anything is measured.
const Fixture& fixture() {
  static const Fixture fx = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 23;
    synth::CollectionConfig stream_config;
    stream_config.seed = 24;
    std::vector<synth::MotionKind> kinds;
    for (int round = 0; round < 2; ++round)
      for (int k = 0; k < synth::kMotionKindCount; ++k)
        kinds.push_back(static_cast<synth::MotionKind>(k));
    return Fixture{core::build_bundle(config),
                   synth::make_gesture_stream(stream_config, kinds, 25)};
  }();
  return fx;
}

/// Pushes every frame of `trace` and finishes the stream, appending the
/// events to `events` (whose capacity the caller reserves, so recording
/// them allocates nothing).
void replay(core::Session& session, const sensor::MultiChannelTrace& trace,
            std::vector<core::GestureEvent>& events) {
  double frame[core::kMaxTimingChannels] = {};
  const std::size_t channels = trace.channel_count();
  const core::Session::EventCallback sink =
      [&events](const core::GestureEvent& e) { events.push_back(e); };
  for (std::size_t i = 0; i < trace.sample_count(); ++i) {
    for (std::size_t c = 0; c < channels; ++c)
      frame[c] = trace.channel(c)[i];
    session.push_frame({frame, channels}, sink);
  }
  session.finish(sink);
}

TEST(SessionMemory, LiveHeapStaysUnderCeiling) {
  const Fixture& fx = fixture();
  std::vector<core::GestureEvent> events;
  events.reserve(256);
  {
    // Warm-up: sizes this thread's scratch arena for the stream's decides.
    core::Session warm(fx.bundle);
    replay(warm, fx.stream.trace, events);
  }
  ASSERT_GT(events.size(), fx.stream.kinds.size() / 2);
  const std::size_t warm_events = events.size();
  events.clear();

  const std::int64_t before = g_live_bytes.load();
  core::Session session(fx.bundle);
  replay(session, fx.stream.trace, events);
  const std::int64_t held = g_live_bytes.load() - before;
  EXPECT_EQ(events.size(), warm_events);
  RecordProperty("session_heap_bytes", std::to_string(held));
  EXPECT_LT(held, kSessionHeapCeiling)
      << "a Session holds " << held << " heap bytes after replaying "
      << fx.stream.trace.sample_count() << " frames";
}

TEST(SessionMemory, ConstructionCopiesOnlyMetricValues) {
  const Fixture& fx = fixture();
  core::Session first(fx.bundle);  // the process's schema exists from here
  const std::uint64_t before = g_allocations.load();
  core::Session second(fx.bundle);
  const std::uint64_t allocations = g_allocations.load() - before;
  RecordProperty("session_construct_allocations", std::to_string(allocations));
  EXPECT_LT(allocations, kSessionConstructAllocCeiling);
}

TEST(SessionMemory, HostAggregationAllocationsDoNotGrowWithLanes) {
  const Fixture& fx = fixture();
  const auto aggregate_allocations = [&fx](std::size_t lanes) {
    core::MultiSessionHost host(fx.bundle, lanes, core::FaultPolicy{},
                                core::HostConfig{.shards = 1});
    host.remove_session(1);  // a retired lane adds its final registry
    const std::uint64_t before = g_allocations.load();
    host.aggregate_metrics();
    return g_allocations.load() - before;
  };
  EXPECT_EQ(aggregate_allocations(4), aggregate_allocations(64));
}

TEST(SessionMemory, ReplayAfterResetAllocatesNothing) {
  const Fixture& fx = fixture();
  std::vector<core::GestureEvent> first;
  std::vector<core::GestureEvent> second;
  first.reserve(256);
  second.reserve(256);
  core::Session session(fx.bundle);
  replay(session, fx.stream.trace, first);

  session.reset();
  const std::uint64_t before = g_allocations.load();
  replay(session, fx.stream.trace, second);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "steady-state replay touched the heap";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t e = 0; e < first.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(first[e].type, second[e].type);
    EXPECT_EQ(first[e].segment_begin, second[e].segment_begin);
    EXPECT_EQ(first[e].segment_end, second[e].segment_end);
    EXPECT_EQ(first[e].gesture, second[e].gesture);
  }
}

}  // namespace
}  // namespace airfinger
