// Concurrency battery for the sharded MultiSessionHost (DESIGN.md §14).
//
// Locks in the serving-host contract the sharded perfbench workloads
// rely on:
//
//   * emissions are bit-identical across shard counts {1, 2, 8}, thread
//     counts {1, 4} (auto-sharded), ring capacities, and one feeder
//     thread per shard — the shardless inline host is the reference every
//     threaded configuration must reproduce exactly;
//   * a mid-trace fault quarantines exactly its own lane at any shard
//     count, and sibling lanes on the same shard stay bit-identical to
//     standalone sessions;
//   * sessions can be added and removed between epochs: indices stay
//     stable, retired lanes reject feeds and keep contributing their
//     final health/metrics to the aggregates;
//   * admission control is exact and per shard: under kReject in inline
//     mode the rejected-frame counters match the injected overflow frame
//     for frame, a shard's queue holds ring_frames per lane (and grows
//     with add_session()), and under kBlock nothing is ever lost no
//     matter how small the queues are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "sensor/fault_injector.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

/// One small trained bundle shared by every test in this file (training
/// dominates the suite's cost; the bundle is immutable so sharing is safe).
const std::shared_ptr<const core::ModelBundle>& trained_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 11;
    return core::build_bundle(config);
  }();
  return bundle;
}

/// Distinct multi-gesture streams, one per hosted session.
std::vector<sensor::MultiChannelTrace> gesture_streams(std::size_t count) {
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle, synth::MotionKind::kScrollUp,
      synth::MotionKind::kClick, synth::MotionKind::kScrollDown};
  std::vector<sensor::MultiChannelTrace> traces;
  traces.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = 2200 + s;
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
  }
  return traces;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    EXPECT_EQ(a[e].time_s, b[e].time_s);
    EXPECT_EQ(a[e].gesture, b[e].gesture);
    EXPECT_EQ(a[e].segment_begin, b[e].segment_begin);
    EXPECT_EQ(a[e].segment_end, b[e].segment_end);
    EXPECT_EQ(a[e].scroll.has_value(), b[e].scroll.has_value());
    if (a[e].scroll && b[e].scroll) {
      EXPECT_EQ(a[e].scroll->direction, b[e].scroll->direction);
      EXPECT_EQ(a[e].scroll->velocity_mps, b[e].scroll->velocity_mps);
      EXPECT_EQ(a[e].scroll->duration_s, b[e].scroll->duration_s);
    }
  }
}

void expect_hosted_identical(const std::vector<core::SessionEvent>& a,
                             const std::vector<core::SessionEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<core::GestureEvent> ea, eb;
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].session, b[e].session) << "event " << e;
    ea.push_back(a[e].event);
    eb.push_back(b[e].event);
  }
  expect_events_identical(ea, eb);
}

// ------------------------------------------- shard-count invariance

TEST(HostSharding, EmissionsBitIdenticalAcrossShardCounts) {
  const auto traces = gesture_streams(6);
  const auto run_with = [&](core::HostConfig config) {
    core::MultiSessionHost host(trained_bundle(), traces.size(),
                                trained_bundle()->config().fault_policy,
                                config);
    return host.run_round_robin(traces, 53);
  };

  core::HostConfig reference_config;
  reference_config.shards = 1;  // inline mode: the reference
  const auto reference = run_with(reference_config);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    expect_hosted_identical(reference, run_with(config));
  }

  // Queue capacity is a pure throughput knob: a 2-frame-per-lane queue
  // forces constant backpressure yet must not perturb a single bit.
  for (const std::size_t ring : {std::size_t{2}, std::size_t{64}}) {
    SCOPED_TRACE("ring " + std::to_string(ring));
    core::HostConfig config;
    config.shards = 2;
    config.ring_frames = ring;
    expect_hosted_identical(reference, run_with(config));
  }
}

TEST(HostSharding, AutoShardCountFollowsThreadPoolAndEmissionsMatch) {
  const auto traces = gesture_streams(4);
  std::vector<core::SessionEvent> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    common::ScopedThreads scoped(threads);
    core::MultiSessionHost host(trained_bundle(), traces.size());
    EXPECT_EQ(host.shard_count(), threads);  // auto = current pool size
    const auto hosted = host.run_round_robin(traces, 37);
    if (reference.empty())
      reference = hosted;
    else
      expect_hosted_identical(reference, hosted);
  }
  // Explicit shards trump the pool; the count is capped by sessions.
  common::ScopedThreads scoped(1);
  core::HostConfig config;
  config.shards = 99;
  core::MultiSessionHost host(trained_bundle(), traces.size(),
                              trained_bundle()->config().fault_policy,
                              config);
  EXPECT_EQ(host.shard_count(), traces.size());
  expect_hosted_identical(reference, host.run_round_robin(traces, 37));
}

// One feeder thread per shard, each streaming exactly the lanes hashed
// to its shard (index % shard_count()) in the same bursts as
// run_round_robin: the concurrent-feed contract the single-producer
// shard queues admit. Per-lane feed order matches the single-feeder
// inline reference, so the drained events must match it bit for bit; the
// race suite runs this under TSan.
TEST(HostSharding, ParallelFeedersAreBitIdenticalToInlineHost) {
  constexpr std::size_t kTurn = 53;
  const auto traces = gesture_streams(6);
  core::HostConfig inline_config;
  inline_config.shards = 1;
  core::MultiSessionHost reference_host(
      trained_bundle(), traces.size(),
      trained_bundle()->config().fault_policy, inline_config);
  const auto reference = reference_host.run_round_robin(traces, kTurn);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    core::MultiSessionHost host(trained_bundle(), traces.size(),
                                trained_bundle()->config().fault_policy,
                                config);
    ASSERT_EQ(host.shard_count(), shards);
    std::vector<std::thread> feeders;
    for (std::size_t s = 0; s < shards; ++s) {
      feeders.emplace_back([&host, &traces, s, shards] {
        std::vector<double> frame(traces.front().channel_count());
        for (std::size_t offset = 0, pending = 1; pending; offset += kTurn) {
          pending = 0;
          for (std::size_t lane = s; lane < traces.size(); lane += shards) {
            const auto& trace = traces[lane];
            const std::size_t end =
                std::min(offset + kTurn, trace.sample_count());
            for (std::size_t f = offset; f < end; ++f) {
              for (std::size_t c = 0; c < frame.size(); ++c)
                frame[c] = trace.channel(c)[f];
              host.feed(lane, frame);
            }
            if (end < trace.sample_count()) ++pending;
          }
        }
      });
    }
    for (auto& t : feeders) t.join();  // happens-before the owner resuming
    host.finish();
    expect_hosted_identical(reference, host.drain());
  }
}

// ------------------------------------------------ fault quarantine

TEST(HostSharding, MidTraceFaultQuarantinesOnlyItsLaneAtAnyShardCount) {
  auto traces = gesture_streams(5);
  sensor::FaultInjectorConfig fault_config;
  fault_config.non_finite_rate = 0.01;
  sensor::FaultInjector injector(fault_config, 31337);
  traces[2] = injector.corrupt(traces[2]);
  ASSERT_FALSE(injector.log().empty());

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    // Strict sessions: the corrupt lane throws inside its shard worker
    // and must be quarantined without disturbing shard siblings.
    core::MultiSessionHost host(trained_bundle(), traces.size(),
                                trained_bundle()->config().fault_policy,
                                config);
    const auto hosted = host.run_round_robin(traces, 37);

    EXPECT_TRUE(host.session_faulted(2));
    EXPECT_EQ(host.faulted_count(), 1u);
    EXPECT_NE(host.session_fault(2).find("non-finite"), std::string::npos);
    EXPECT_GT(host.dropped_frames(2), 0u);

    std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
    for (const auto& e : hosted) per_session[e.session].push_back(e.event);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i == 2) continue;
      SCOPED_TRACE("sibling " + std::to_string(i));
      EXPECT_FALSE(host.session_faulted(i));
      core::Session standalone(trained_bundle());
      expect_events_identical(per_session[i],
                              standalone.process_trace(traces[i]));
    }
  }
}

// -------------------------------------------- lifecycle between epochs

TEST(HostSharding, AddAndRemoveSessionsBetweenEpochs) {
  const auto traces = gesture_streams(3);
  const std::size_t channels = trained_bundle()->config().channels;
  core::MultiSessionHost host(trained_bundle(), 2);

  const auto feed_range = [&](std::size_t lane,
                              const sensor::MultiChannelTrace& trace,
                              std::size_t begin, std::size_t end) {
    std::vector<double> frame(channels);
    for (std::size_t f = begin; f < end; ++f) {
      for (std::size_t c = 0; c < channels; ++c)
        frame[c] = trace.channel(c)[f];
      EXPECT_TRUE(host.feed(lane, frame));
    }
  };

  const std::size_t half0 = traces[0].sample_count() / 2;
  const std::size_t half1 = traces[1].sample_count() / 2;
  feed_range(0, traces[0], 0, half0);
  feed_range(1, traces[1], 0, half1);
  host.pump();  // epoch barrier: everything fed so far is processed
  EXPECT_EQ(host.frames_processed(), half0 + half1);

  // Grow between epochs: the new lane lands on shard index % shards.
  const std::size_t added = host.add_session();
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(host.session_count(), 3u);

  feed_range(0, traces[0], half0, traces[0].sample_count());
  feed_range(1, traces[1], half1, traces[1].sample_count());
  feed_range(2, traces[2], 0, traces[2].sample_count());
  host.finish();

  // Retire lane 0: the index stays valid, its final counters survive.
  const std::uint64_t frames_before = host.aggregate_health().frames;
  host.remove_session(0);
  EXPECT_TRUE(host.session_retired(0));
  EXPECT_FALSE(host.session_retired(1));
  host.remove_session(0);  // idempotent

  std::vector<double> frame(channels, 0.0);
  EXPECT_FALSE(host.feed(0, frame));  // retired lanes reject feeds
  EXPECT_EQ(host.rejected_frames(0), 1u);
  EXPECT_TRUE(host.feed(1, frame));  // live lanes are untouched

  // Aggregates still cover the retired lane via its captured snapshot.
  EXPECT_EQ(host.aggregate_health().frames, frames_before + 1);
  const obs::MetricsSnapshot metrics = host.aggregate_metrics();
  EXPECT_EQ(metrics.find("af_host_sessions")->value, 3.0);
  EXPECT_EQ(metrics.find("af_host_retired_sessions")->value, 1.0);
  EXPECT_EQ(metrics.find("af_host_rejected_frames_total")->count, 1u);
  EXPECT_EQ(metrics.find("af_host_frames_processed_total")->count,
            traces[0].sample_count() + traces[1].sample_count() +
                traces[2].sample_count() + 1);

  // The still-live lanes drain their full event streams.
  host.pump();
  const auto events = host.drain();
  std::vector<std::vector<core::GestureEvent>> per_session(3);
  for (const auto& e : events) per_session[e.session].push_back(e.event);
  core::Session standalone(trained_bundle());
  expect_events_identical(per_session[2],
                          standalone.process_trace(traces[2]));
}

// ------------------------------------------------- admission control

TEST(HostSharding, RejectAdmissionCountsOverflowExactly) {
  // Inline mode makes rejection deterministic: the caller is the only
  // consumer, so with an 8-frame ring exactly the 9th..Nth un-pumped
  // feeds overflow — the counters must match the injected overflow
  // frame for frame.
  const std::size_t channels = trained_bundle()->config().channels;
  core::HostConfig config;
  config.shards = 1;
  config.ring_frames = 8;
  config.admission = core::Admission::kReject;
  core::MultiSessionHost host(trained_bundle(), 1,
                              trained_bundle()->config().fault_policy,
                              config);

  const std::vector<double> frame(channels, 0.05);
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < 20; ++i)
    (host.feed(0, frame) ? accepted : rejected) += 1;
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 12u);
  EXPECT_EQ(host.rejected_frames(0), 12u);
  EXPECT_EQ(host.shard_telemetry(0).occupancy_high_water, 8u);

  host.pump();  // drains the 8 accepted frames; ring empties
  EXPECT_EQ(host.frames_processed(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(host.feed(0, frame));
  EXPECT_FALSE(host.feed(0, frame));
  EXPECT_EQ(host.rejected_frames(0), 13u);
  EXPECT_EQ(host.dropped_frames(0), 0u);  // rejected != dropped

  // The overflow surfaces in the aggregate view.
  const obs::MetricsSnapshot metrics = host.aggregate_metrics(true);
  EXPECT_EQ(metrics.find("af_host_rejected_frames_total")->count, 13u);
  EXPECT_EQ(metrics.find("af_host_ring_capacity_frames")->value, 8.0);
  EXPECT_EQ(metrics.find("af_host_ring_high_water_frames")->value, 8.0);
  EXPECT_EQ(metrics.find("af_shard0_occupancy_high_water_frames")->value,
            8.0);
  EXPECT_EQ(metrics.find("af_host_shards")->value, 1.0);
}

TEST(HostSharding, RejectAdmissionAppliesPerShardQueue) {
  // Inline mode, 3 lanes with a 4-frame share each: the one shard queue
  // holds 12 frames, so of 20 un-pumped round-robin feeds exactly the
  // first 12 are accepted, and every refusal is counted against the lane
  // it was meant for.
  const std::size_t channels = trained_bundle()->config().channels;
  core::HostConfig config;
  config.shards = 1;
  config.ring_frames = 4;
  config.admission = core::Admission::kReject;
  core::MultiSessionHost host(trained_bundle(), 3,
                              trained_bundle()->config().fault_policy,
                              config);

  const std::vector<double> frame(channels, 0.05);
  std::size_t accepted = 0;
  std::vector<std::uint64_t> refused(3, 0);
  for (std::size_t i = 0; i < 20; ++i) {
    if (host.feed(i % 3, frame))
      ++accepted;
    else
      ++refused[i % 3];
  }
  EXPECT_EQ(accepted, 12u);
  // Feeds 12..19 went to lanes 0,1,2,0,1,2,0,1.
  EXPECT_EQ(refused, (std::vector<std::uint64_t>{3, 3, 2}));
  for (std::size_t lane = 0; lane < 3; ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    EXPECT_EQ(host.rejected_frames(lane), refused[lane]);
    EXPECT_EQ(host.dropped_frames(lane), 0u);
  }
  EXPECT_EQ(host.frames_processed(), 12u);

  // The bound is the shard's, not the lane's: one busy lane may use the
  // whole queue while its siblings are quiet.
  for (std::size_t i = 0; i < 14; ++i) host.feed(0, frame);
  EXPECT_EQ(host.rejected_frames(0), refused[0] + 2);
  EXPECT_EQ(host.frames_processed(), 24u);
}

TEST(HostSharding, DefaultQueuesNeverBlockPaced100HzTicks) {
  // The serving shape: every lane delivers one frame per tick and the
  // owner pumps after each tick. With the default 16-frame share per
  // lane a shard's queue holds 16 ticks of input, so feed() never waits.
  const auto traces = gesture_streams(4);
  const std::size_t channels = trained_bundle()->config().channels;
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kTicks = 300;
  core::HostConfig config;
  config.shards = 2;
  core::MultiSessionHost host(trained_bundle(), kLanes,
                              trained_bundle()->config().fault_policy,
                              config);
  ASSERT_EQ(host.host_config().ring_frames, 16u);

  std::vector<double> frame(channels);
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const sensor::MultiChannelTrace& trace = traces[lane % traces.size()];
      for (std::size_t c = 0; c < channels; ++c)
        frame[c] = trace.channel(c)[tick];
      ASSERT_TRUE(host.feed(lane, frame));
    }
    host.pump();
  }
  for (std::size_t lane = 0; lane < kLanes; ++lane)
    EXPECT_EQ(host.blocked_feeds(lane), 0u) << "lane " << lane;
  EXPECT_EQ(host.frames_processed(), kLanes * kTicks);
}

TEST(HostSharding, AddSessionGrowsItsShardQueueAndStaysLossless) {
  const auto traces = gesture_streams(3);
  const std::size_t channels = trained_bundle()->config().channels;
  const auto feed_range = [&](core::MultiSessionHost& host, std::size_t lane,
                              const sensor::MultiChannelTrace& trace,
                              std::size_t begin, std::size_t end) {
    std::vector<double> frame(channels);
    for (std::size_t f = begin; f < end; ++f) {
      for (std::size_t c = 0; c < channels; ++c)
        frame[c] = trace.channel(c)[f];
      EXPECT_TRUE(host.feed(lane, frame));
    }
  };
  const auto expect_standalone = [&](core::MultiSessionHost& host,
                                     std::size_t lanes) {
    std::vector<std::vector<core::GestureEvent>> per_session(lanes);
    for (const auto& e : host.drain()) per_session[e.session].push_back(e.event);
    for (std::size_t i = 0; i < lanes; ++i) {
      SCOPED_TRACE("lane " + std::to_string(i));
      EXPECT_EQ(host.dropped_frames(i) + host.rejected_frames(i), 0u);
      core::Session standalone(trained_bundle());
      expect_events_identical(per_session[i],
                              standalone.process_trace(traces[i]));
    }
  };

  {
    // Inline, 4 frames per lane: one lane's queue holds 4 frames; after
    // add_session() the same queue holds 8, so 8 un-pumped feeds fit
    // without a blocking drain.
    SCOPED_TRACE("inline");
    core::HostConfig config;
    config.shards = 1;
    config.ring_frames = 4;
    core::MultiSessionHost host(trained_bundle(), 1,
                                trained_bundle()->config().fault_policy,
                                config);
    feed_range(host, 0, traces[0], 0, 4);
    host.pump();
    EXPECT_EQ(host.add_session(), 1u);
    feed_range(host, 0, traces[0], 4, 8);
    feed_range(host, 1, traces[1], 0, 4);
    EXPECT_EQ(host.blocked_feeds(0) + host.blocked_feeds(1), 0u);
    EXPECT_EQ(host.shard_telemetry(0).occupancy_high_water, 8u);

    // The rest streams under constant backpressure, losslessly.
    feed_range(host, 0, traces[0], 8, traces[0].sample_count());
    feed_range(host, 1, traces[1], 4, traces[1].sample_count());
    host.finish();
    EXPECT_GT(host.blocked_feeds(0), 0u);
    EXPECT_EQ(host.frames_processed(),
              traces[0].sample_count() + traces[1].sample_count());
    expect_standalone(host, 2);
  }
  {
    // Threaded, 2 frames per lane under kBlock: a lane added mid-stream
    // joins shard 0's queue without losing or reordering anything.
    SCOPED_TRACE("threaded");
    core::HostConfig config;
    config.shards = 2;
    config.ring_frames = 2;
    core::MultiSessionHost host(trained_bundle(), 2,
                                trained_bundle()->config().fault_policy,
                                config);
    const std::size_t half0 = traces[0].sample_count() / 2;
    const std::size_t half1 = traces[1].sample_count() / 2;
    feed_range(host, 0, traces[0], 0, half0);
    feed_range(host, 1, traces[1], 0, half1);
    EXPECT_EQ(host.add_session(), 2u);
    feed_range(host, 2, traces[2], 0, traces[2].sample_count());
    feed_range(host, 0, traces[0], half0, traces[0].sample_count());
    feed_range(host, 1, traces[1], half1, traces[1].sample_count());
    host.finish();
    EXPECT_EQ(host.frames_processed(), traces[0].sample_count() +
                                           traces[1].sample_count() +
                                           traces[2].sample_count());
    expect_standalone(host, 3);
  }
}

TEST(HostSharding, BlockAdmissionIsLosslessUnderTinyRings) {
  // kBlock with a 2-frame share per lane: feed() constantly waits on the
  // worker, yet every frame must arrive — fed == processed, nothing
  // dropped or rejected, and the emissions match an unconstrained run
  // exactly.
  const auto traces = gesture_streams(2);
  core::HostConfig config;
  config.shards = 2;
  config.ring_frames = 2;
  core::MultiSessionHost host(trained_bundle(), traces.size(),
                              trained_bundle()->config().fault_policy,
                              config);
  const auto hosted = host.run_round_robin(traces, 37);

  const std::uint64_t fed =
      traces[0].sample_count() + traces[1].sample_count();
  EXPECT_EQ(host.frames_processed(), fed);
  EXPECT_EQ(host.dropped_frames(0) + host.dropped_frames(1), 0u);
  EXPECT_EQ(host.rejected_frames(0) + host.rejected_frames(1), 0u);

  std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
  for (const auto& e : hosted) per_session[e.session].push_back(e.event);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    core::Session standalone(trained_bundle());
    expect_events_identical(per_session[i],
                            standalone.process_trace(traces[i]));
  }
}

}  // namespace
}  // namespace airfinger
