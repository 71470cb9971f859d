// Tests for the ModelBundle / Session split: single-file artifact
// round-trips (bit-identical predictions), loading artifacts that carry a
// retired field, malformed-input rejection, zero-copy shared ownership of
// the models, re-entrant Sessions sharing one thread's scratch arena, and
// MultiSessionHost event equivalence with standalone sessions.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
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

/// Probe recordings the loaded models must agree on, byte for byte.
const synth::Dataset& probe_corpus() {
  static const synth::Dataset probes = [] {
    synth::CollectionConfig config;
    config.users = 1;
    config.sessions = 1;
    config.repetitions = 1;
    config.kinds = {synth::MotionKind::kCircle, synth::MotionKind::kClick,
                    synth::MotionKind::kScrollUp,
                    synth::MotionKind::kScrollDown};
    config.seed = 404;
    return synth::DatasetBuilder(config).collect();
  }();
  return probes;
}

/// FNV-1a 64-bit, the checksum of the bundle artifact's integrity footer.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    // Bit-exact double comparisons: the contract is bit identity.
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

TEST(Bundle, RoundTripIsBitIdentical) {
  const auto& original = trained_bundle();

  std::stringstream artifact;
  original->save(artifact);
  const auto loaded = core::ModelBundle::load(artifact);

  // The trained calibration travels with the artifact, exactly.
  EXPECT_EQ(loaded->config().zebra.velocity_gain,
            original->config().zebra.velocity_gain);
  EXPECT_EQ(loaded->config().sample_rate_hz,
            original->config().sample_rate_hz);
  EXPECT_EQ(loaded->config().channels, original->config().channels);
  EXPECT_EQ(loaded->config().interference_filtering,
            original->config().interference_filtering);
  EXPECT_EQ(loaded->recognizer().selected_features(),
            original->recognizer().selected_features());
  ASSERT_TRUE(loaded->filter().has_value());
  EXPECT_EQ(loaded->filter()->feature_indices(),
            original->filter()->feature_indices());

  // Bit-identical predictions over the pinned probe corpus.
  for (const auto& probe : probe_corpus().samples)
    expect_events_identical(original->classify_recording(probe.trace),
                            loaded->classify_recording(probe.trace));

  // Save → load → save is byte-stable (hex-float exactness end to end).
  std::stringstream resaved;
  loaded->save(resaved);
  std::stringstream first;
  original->save(first);
  EXPECT_EQ(first.str(), resaved.str());
}

// Artifacts written while sessions kept a whole-stream ΔRSS² history carry
// a `history_limit <count>` line after `hybrid_override_margin`. Such an
// artifact must still load, serve exactly the events of the bundle that
// wrote it, and save back without the line.
TEST(Bundle, LoadsArtifactCarryingRetiredHistoryLimit) {
  const auto& original = trained_bundle();
  std::stringstream artifact;
  original->save(artifact);
  const std::string current = artifact.str();

  std::string payload = current.substr(0, current.rfind("checksum "));
  const std::size_t margin = payload.find("\nhybrid_override_margin ");
  ASSERT_NE(margin, std::string::npos);
  payload.insert(payload.find('\n', margin + 1) + 1, "history_limit 4096\n");
  std::stringstream legacy(payload + "checksum " +
                           std::to_string(fnv1a64(payload)) + "\n");
  const auto loaded = core::ModelBundle::load(legacy);

  for (const auto& probe : probe_corpus().samples) {
    core::Session served_original(original);
    core::Session served_legacy(loaded);
    expect_events_identical(served_original.process_trace(probe.trace),
                            served_legacy.process_trace(probe.trace));
  }
  std::stringstream resaved;
  loaded->save(resaved);
  EXPECT_EQ(resaved.str(), current);
}

// The serving path's timing analysis handles at most kMaxTimingChannels
// channels, so a wider bundle must be refused when it is built (or
// loaded), not by every Session once a segment reaches the probe.
TEST(Bundle, RejectsMoreChannelsThanTheTimingAnalysisHandles) {
  const auto& bundle = trained_bundle();
  core::AirFingerConfig config = bundle->config();
  config.channels = core::kMaxTimingChannels;
  EXPECT_NO_THROW(
      core::ModelBundle(config, bundle->recognizer(), bundle->filter()));
  config.channels = core::kMaxTimingChannels + 1;
  EXPECT_THROW(
      core::ModelBundle(config, bundle->recognizer(), bundle->filter()),
      PreconditionError);
}

TEST(Bundle, MalformedHeaderRejected) {
  std::stringstream wrong_tag("not_a_bundle 1\n");
  EXPECT_THROW(core::ModelBundle::load(wrong_tag), PreconditionError);
  std::stringstream bad_version("afbundle 99\n");
  EXPECT_THROW(core::ModelBundle::load(bad_version), PreconditionError);
  std::stringstream empty;
  EXPECT_THROW(core::ModelBundle::load(empty), PreconditionError);
}

TEST(Bundle, TruncatedArtifactRejected) {
  std::stringstream artifact;
  trained_bundle()->save(artifact);
  const std::string full = artifact.str();
  // Cut at several depths: inside the config block, inside the forest,
  // and just before the trailing end tag. Every cut must throw, never
  // yield a silently half-loaded model.
  for (const double fraction : {0.01, 0.1, 0.5, 0.9, 0.999}) {
    SCOPED_TRACE("fraction " + std::to_string(fraction));
    std::stringstream cut(full.substr(
        0, static_cast<std::size_t>(fraction *
                                    static_cast<double>(full.size()))));
    EXPECT_THROW(core::ModelBundle::load(cut), PreconditionError);
  }
}

// Fuzz-style robustness: every corrupted artifact — truncated anywhere or
// bit-flipped anywhere — must be rejected with PreconditionError. Never a
// crash, a hang, a runaway allocation, or a silently half-loaded bundle.
// The integrity footer makes this airtight: load() verifies the payload
// checksum before any model parsing. Seeded and deterministic (~1k cases);
// also exercised under ASan via tools/run_checks.sh.
TEST(Bundle, FuzzedArtifactsAlwaysRejectedNeverCrash) {
  std::stringstream artifact;
  trained_bundle()->save(artifact);
  const std::string full = artifact.str();
  ASSERT_GT(full.size(), 1000u);
  common::Rng rng(0xF00DFACE);

  const auto expect_rejected = [](const std::string& bytes,
                                  const std::string& what) {
    std::stringstream mangled(bytes);
    try {
      const auto bundle = core::ModelBundle::load(mangled);
      ADD_FAILURE() << what << ": corrupted artifact loaded successfully";
    } catch (const PreconditionError&) {
      // The one acceptable outcome.
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": wrong exception type: " << e.what();
    }
  };

  // Random truncations, including length 0 and cuts inside the footer.
  for (int c = 0; c < 512; ++c) {
    const auto cut = static_cast<std::size_t>(rng.below(full.size()));
    expect_rejected(full.substr(0, cut),
                    "truncation at " + std::to_string(cut));
  }

  // Random bit flips (1–8 per case) anywhere in the artifact.
  for (int c = 0; c < 512; ++c) {
    std::string mangled = full;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.below(mangled.size()));
      mangled[at] = static_cast<char>(
          static_cast<unsigned char>(mangled[at]) ^
          (1u << static_cast<unsigned>(rng.below(8))));
    }
    if (mangled == full) continue;  // flips cancelled each other out
    expect_rejected(mangled, "bit flips, case " + std::to_string(c));
  }
}

TEST(Session, ConstructionSharesModelsWithoutCopying) {
  const auto& bundle = trained_bundle();
  const long count_before = bundle.use_count();

  core::Session a(bundle);
  core::Session b(bundle);

  // Shared ownership, not copies: both sessions reference the same bundle
  // object, and the forests live at the same addresses.
  EXPECT_EQ(bundle.use_count(), count_before + 2);
  EXPECT_EQ(&a.bundle(), bundle.get());
  EXPECT_EQ(&b.bundle(), bundle.get());
  EXPECT_EQ(&a.bundle().recognizer(), &bundle->recognizer());
  EXPECT_EQ(&b.bundle().recognizer(), &a.bundle().recognizer());
  ASSERT_TRUE(a.bundle().filter().has_value());
  EXPECT_EQ(&*a.bundle().filter(), &*bundle->filter());
}

// A Session moved mid-stream carries on exactly where it stopped: its
// per-frame state lives in a hot block whose span sampler the
// observability is re-bound to, and the rest moves member by member.
// Emissions and the frame / sampled-span / artifact counters must equal a
// session that never moved, with the artifact layer on and off, and a
// sampling rate set after the move must act on the moved session.
TEST(Session, MoveMidStreamMatchesUnmovedSession) {
  const auto& bundle = trained_bundle();
  core::FaultPolicy artifacts;
  artifacts.enabled = true;
  artifacts.artifact.detect = true;
  for (const core::FaultPolicy& policy :
       {bundle->config().fault_policy, artifacts}) {
    for (const auto& probe : probe_corpus().samples) {
      const auto& trace = probe.trace;
      const std::size_t half = trace.sample_count() / 2;
      std::vector<core::GestureEvent> events_ref, events_moved;
      const auto feed = [&](core::Session& s, std::size_t from,
                            std::size_t to,
                            std::vector<core::GestureEvent>& out) {
        const core::Session::EventCallback sink =
            [&out](const core::GestureEvent& e) { out.push_back(e); };
        std::vector<double> frame(trace.channel_count());
        for (std::size_t k = from; k < to; ++k) {
          for (std::size_t c = 0; c < frame.size(); ++c)
            frame[c] = trace.channel(c)[k];
          s.push_frame(frame, sink);
        }
        if (to == trace.sample_count()) s.finish(sink);
      };

      core::Session reference(bundle, policy);
      reference.observability().set_sample_every(5);
      feed(reference, 0, half, events_ref);
      reference.observability().set_sample_every(3);
      feed(reference, half, trace.sample_count(), events_ref);

      core::Session original(bundle, policy);
      original.observability().set_sample_every(5);
      feed(original, 0, half, events_moved);
      core::Session moved(std::move(original));
      EXPECT_EQ(moved.observability().sample_every(), 5u);
      moved.observability().set_sample_every(3);
      feed(moved, half, trace.sample_count(), events_moved);

      expect_events_identical(events_moved, events_ref);
      EXPECT_EQ(moved.frames_seen(), reference.frames_seen());
      const auto snap_ref = reference.observability().registry().snapshot();
      const auto snap = moved.observability().registry().snapshot();
      for (const char* name :
           {"af_frames_total", "af_stage_ingest_ns",
            "af_segments_opened_total", "af_artifact_impulse_suspect_total"}) {
        SCOPED_TRACE(name);
        ASSERT_NE(snap.find(name), nullptr);
        EXPECT_EQ(snap.find(name)->count, snap_ref.find(name)->count);
      }
    }
  }
}

TEST(Session, IndependentSessionsMatchSerialReplay) {
  const auto& bundle = trained_bundle();
  const auto& probes = probe_corpus();

  // Replaying through one reused session (reset between traces) and
  // through fresh per-trace sessions must agree event for event.
  core::Session reused(bundle);
  for (const auto& probe : probes.samples) {
    reused.reset();
    std::vector<core::GestureEvent> via_reused =
        reused.process_trace(probe.trace);
    core::Session fresh(bundle);
    expect_events_identical(via_reused, fresh.process_trace(probe.trace));
  }

  // Nested: every Session on a thread shares the thread's scratch arena.
  // Session A's event callback pushes Session B's next frames until B
  // emits, so B probes and decides while A is inside push_frame. Both
  // event streams must match separate replays bit for bit.
  std::size_t nested_events = 0;
  for (std::size_t i = 0; i < probes.samples.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const auto& trace_a = probes.samples[i].trace;
    const auto& trace_b =
        probes.samples[(i + 1) % probes.samples.size()].trace;
    core::Session a(bundle);
    core::Session b(bundle);
    std::vector<core::GestureEvent> events_a;
    std::vector<core::GestureEvent> events_b;
    const core::Session::EventCallback sink_b =
        [&events_b](const core::GestureEvent& e) { events_b.push_back(e); };
    std::vector<double> frame_b(trace_b.channel_count());
    std::size_t next_b = 0;
    const auto advance_b = [&] {
      const std::size_t before = events_b.size();
      while (next_b < trace_b.sample_count() && events_b.size() == before) {
        for (std::size_t c = 0; c < frame_b.size(); ++c)
          frame_b[c] = trace_b.channel(c)[next_b];
        ++next_b;
        b.push_frame(frame_b, sink_b);
      }
      return events_b.size() - before;
    };
    const core::Session::EventCallback sink_a =
        [&](const core::GestureEvent& e) {
          events_a.push_back(e);
          nested_events += advance_b();
        };
    std::vector<double> frame_a(trace_a.channel_count());
    for (std::size_t k = 0; k < trace_a.sample_count(); ++k) {
      for (std::size_t c = 0; c < frame_a.size(); ++c)
        frame_a[c] = trace_a.channel(c)[k];
      a.push_frame(frame_a, sink_a);
    }
    a.finish(sink_a);
    while (next_b < trace_b.sample_count()) advance_b();
    b.finish(sink_b);

    core::Session alone_a(bundle);
    core::Session alone_b(bundle);
    expect_events_identical(events_a, alone_a.process_trace(trace_a));
    expect_events_identical(events_b, alone_b.process_trace(trace_b));
  }
  EXPECT_GT(nested_events, 0u);
}

TEST(MultiSessionHost, MatchesStandaloneSessions) {
  const auto& bundle = trained_bundle();
  const auto& probes = probe_corpus();

  std::vector<sensor::MultiChannelTrace> traces;
  for (const auto& probe : probes.samples) traces.push_back(probe.trace);

  core::MultiSessionHost host(bundle, traces.size());
  const auto hosted = host.run_round_robin(traces, 37);

  // Split the host's event stream back per session and compare with a
  // standalone Session replay of the same trace.
  std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
  std::size_t last_session = 0;
  for (const auto& e : hosted) {
    ASSERT_LT(e.session, traces.size());
    // drain() order: session-major.
    ASSERT_GE(e.session, last_session);
    last_session = e.session;
    per_session[e.session].push_back(e.event);
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    core::Session standalone(bundle);
    expect_events_identical(per_session[i],
                            standalone.process_trace(traces[i]));
  }
  EXPECT_EQ(host.frames_processed(),
            [&] {
              std::uint64_t total = 0;
              for (const auto& t : traces) total += t.sample_count();
              return total;
            }());
}

TEST(MultiSessionHost, ValidatesInput) {
  const auto& bundle = trained_bundle();
  EXPECT_THROW(core::MultiSessionHost(nullptr, 2), PreconditionError);
  EXPECT_THROW(core::MultiSessionHost(bundle, 0), PreconditionError);
  core::MultiSessionHost host(bundle, 2);
  const std::vector<double> bad_frame(bundle->config().channels + 1, 0.0);
  EXPECT_THROW(host.feed(0, bad_frame), PreconditionError);
  EXPECT_THROW(host.feed(5, std::vector<double>(3, 0.0)),
               PreconditionError);
  EXPECT_THROW(host.run_round_robin({}), PreconditionError);
}

}  // namespace
}  // namespace airfinger
