#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "core/data_processor.hpp"
#include "core/session.hpp"
#include "core/timing_cache.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "features/workspace.hpp"
#include "memory.hpp"
#include "obs/pipeline.hpp"
#include "sensor/artifact.hpp"

namespace airfinger::perfbench {

namespace {

using core::GestureEvent;
using core::Session;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool same_event(const GestureEvent& a, const GestureEvent& b) {
  if (a.type != b.type || !same_bits(a.time_s, b.time_s) ||
      a.gesture != b.gesture || a.segment_begin != b.segment_begin ||
      a.segment_end != b.segment_end ||
      a.scroll.has_value() != b.scroll.has_value())
    return false;
  if (!a.scroll) return true;
  const core::ScrollEstimate& x = *a.scroll;
  const core::ScrollEstimate& y = *b.scroll;
  if (x.delta_t_s.has_value() != y.delta_t_s.has_value()) return false;
  if (x.delta_t_s && !same_bits(*x.delta_t_s, *y.delta_t_s)) return false;
  return same_bits(x.direction, y.direction) &&
         same_bits(x.velocity_mps, y.velocity_mps) &&
         same_bits(x.duration_s, y.duration_s) &&
         x.used_experience_velocity == y.used_experience_velocity;
}

namespace {

/// True while the session has a segment open (from its public counters).
bool segment_open(const Session& s) {
  const auto& o = s.observability();
  const auto& r = o.registry();
  return r.counter_value(o.segments_opened) >
         r.counter_value(o.segments_closed) +
             r.counter_value(o.segments_abandoned) +
             r.counter_value(o.segments_dropped);
}

/// A labelled window of the pool, processed by DataProcessor.
struct Window {
  core::ProcessedTrace view;
  std::size_t length = 0;
};

std::vector<Window> labelled_windows(const core::ModelBundle& bundle,
                                     const Inputs& in, std::size_t limit) {
  const core::AirFingerConfig& config = bundle.config();
  const core::DataProcessor processor(config.processing);
  std::vector<Window> out;
  for (const PoolTrace& trace : in.pool) {
    if (out.size() >= limit) break;
    sensor::MultiChannelTrace recording(trace.channels, config.sample_rate_hz);
    for (std::size_t i = 0; i < trace.length(); ++i)
      recording.push_frame(trace.frame(i));
    const core::ProcessedTrace processed = processor.process(recording);
    for (const Label& label : trace.labels) {
      if (out.size() >= limit) break;
      const dsp::Segment seg =
          core::DataProcessor::select_segment(processed, label.begin, label.end);
      if (seg.length() < 8) continue;
      Window w;
      w.length = seg.length();
      w.view.sample_rate_hz = processed.sample_rate_hz;
      for (const auto& ch : processed.delta_rss2)
        w.view.delta_rss2.emplace_back(ch.begin() + static_cast<long>(seg.begin),
                                       ch.begin() + static_cast<long>(seg.end));
      w.view.energy.assign(processed.energy.begin() + static_cast<long>(seg.begin),
                           processed.energy.begin() + static_cast<long>(seg.end));
      out.push_back(std::move(w));
    }
  }
  return out;
}

}  // namespace

bool events_identical(const std::vector<GestureEvent>& a,
                      const std::vector<GestureEvent>& b, std::string* why) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(a[i], b[i])) {
      if (why)
        *why = "event " + std::to_string(i) + " differs: " + a[i].describe() +
               " vs " + b[i].describe();
      return false;
    }
  }
  if (a.size() != b.size()) {
    if (why)
      *why = "event counts differ: " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size());
    return false;
  }
  return true;
}

ReplayCheck check_lanes(const std::shared_ptr<const core::ModelBundle>& bundle,
                        const Inputs& in, const std::vector<std::size_t>& lanes,
                        const std::vector<std::vector<GestureEvent>>* host_events,
                        SessionTimings* timings) {
  ReplayCheck check;
  std::uint64_t allocs = 0;
  if (timings) {
    std::size_t total = 0;
    for (const std::size_t lane : lanes) total += in.lanes[lane].frames;
    timings->idle_ns.reserve(total);
    timings->motion_ns.reserve(total);
    timings->emit_ns.reserve(total);
    timings->storm_ns.reserve(total);
  }
  for (const std::size_t lane : lanes) {
    Session session(bundle, in.policy);
    std::vector<GestureEvent> events;
    events.reserve(4 * (host_events ? (*host_events)[lane].size() : 16) + 64);
    bool final_event = false;
    const Session::EventCallback sink = [&events, &final_event](
                                            const GestureEvent& e) {
      events.push_back(e);
      if (e.type != GestureEvent::Type::kScrollDirection) final_event = true;
    };
    const std::size_t n = in.lanes[lane].frames;
    for (std::size_t k = 0; k < n; ++k) {
      const bool open_before = segment_open(session);
      final_event = false;
      session.push_frame(in.frame(lane, k), sink);
      check.open_frames += final_event || open_before || segment_open(session);
    }
    check.frames += n;
    std::string why;
    if (host_events && !events_identical((*host_events)[lane], events, &why)) {
      check.ok = false;
      check.error = "lane " + std::to_string(lane) +
                    ": host and standalone session disagree: " + why;
      return check;
    }
    const std::vector<GestureEvent> reference = events;

    // Second replay on the warmed session: steady state must not touch
    // the heap, and reset() must reproduce the stream exactly.
    session.reset();
    events.clear();
    const bool storm = in.storm_class(lane) >= 0;
    const std::uint64_t before = allocation_count();
    for (std::size_t k = 0; k < n; ++k) {
      if (!timings) {
        session.push_frame(in.frame(lane, k), sink);
        continue;
      }
      const bool open_before = segment_open(session);
      final_event = false;
      const std::int64_t t0 = now_ns();
      session.push_frame(in.frame(lane, k), sink);
      const auto ns = static_cast<double>(now_ns() - t0);
      if (final_event)
        timings->emit_ns.push_back(ns);
      else if (open_before || segment_open(session))
        timings->motion_ns.push_back(ns);
      else
        timings->idle_ns.push_back(ns);
      if (storm) timings->storm_ns.push_back(ns);
    }
    allocs += allocation_count() - before;
    if (!events_identical(reference, events, &why)) {
      check.ok = false;
      check.error = "lane " + std::to_string(lane) +
                    ": replay after reset() differs: " + why;
      return check;
    }
  }
  check.allocs_per_frame =
      check.frames ? static_cast<double>(allocs) /
                         static_cast<double>(check.frames)
                   : 0.0;
  if (allocs != 0) {
    check.ok = false;
    check.error = "steady-state push_frame allocated " +
                  std::to_string(allocs) + " times over " +
                  std::to_string(check.frames) + " frames";
  }
  return check;
}

void measure_layers(const std::shared_ptr<const core::ModelBundle>& bundle,
                    const Inputs& in, const std::vector<std::size_t>& lanes,
                    bool artifact_detectors, SpanLog& spans,
                    std::map<std::string, double>& metrics, LayerCosts& costs) {
  const core::AirFingerConfig& config = bundle->config();
  const double rate = config.sample_rate_hz;
  const std::size_t channels = config.channels;
  std::size_t frames_total = 0, longest = 0;
  for (const std::size_t lane : lanes) {
    frames_total += in.lanes[lane].frames;
    longest = std::max(longest, in.lanes[lane].frames);
  }
  constexpr int kReps = 5;
  std::uint32_t request = 0;

  // ---- obs: whole-lane push_frame cost with spans on vs runtime-off.
  {
    std::vector<Session> sessions;
    sessions.reserve(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      sessions.emplace_back(bundle, in.policy);
    const Session::EventCallback sink = [](const GestureEvent&) {};
    std::vector<double> on_ns, off_ns, diff_ns;
    for (int rep = 0; rep < kReps; ++rep) {
      double t[2] = {0.0, 0.0};
      // Alternate which setting runs first, so drift within a rep does not
      // bias the difference.
      for (int pass = 0; pass < 2; ++pass) {
        const int enabled = (pass + rep) % 2;
        const std::int32_t span =
            spans.begin(enabled ? "session.spans_on" : "session.spans_off",
                        SpanLog::kRoot, request++);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
          Session& s = sessions[i];
          s.reset();
          s.observability().set_spans_enabled(enabled != 0);
          const std::int64_t t0 = now_ns();
          for (std::size_t k = 0; k < in.lanes[lanes[i]].frames; ++k)
            s.push_frame(in.frame(lanes[i], k), sink);
          t[enabled] += static_cast<double>(now_ns() - t0);
        }
        spans.end(span);
      }
      on_ns.push_back(t[1] / static_cast<double>(frames_total));
      off_ns.push_back(t[0] / static_cast<double>(frames_total));
      diff_ns.push_back((t[1] - t[0]) / static_cast<double>(frames_total));
    }
    costs.session_on = median(on_ns);
    costs.session_off = median(off_ns);
    metrics["obs.spans_ns_per_frame"] = median(diff_ns);

    // In-path stage times: one more pass with every frame sampled, summed
    // from the sessions' stage-span histograms.
    double stage_ns[obs::kStageCount] = {};
    double sampled_ns = 0.0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Session& s = sessions[i];
      s.reset();
      s.observability().set_spans_enabled(true);
      s.observability().set_trace_enabled(false);
      s.observability().set_sample_every(1);
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < in.lanes[lanes[i]].frames; ++k)
        s.push_frame(in.frame(lanes[i], k), sink);
      sampled_ns += static_cast<double>(now_ns() - t0);
      const obs::MetricsSnapshot snap = s.observability().registry().snapshot();
      for (std::size_t st = 0; st < obs::kStageCount; ++st) {
        const obs::MetricEntry* e = snap.find(
            std::string("af_stage_") + obs::stage_name(static_cast<obs::Stage>(st)) +
            "_ns");
        if (e) stage_ns[st] += e->value;
      }
    }
    const auto per_frame = [&](obs::Stage st) {
      return stage_ns[static_cast<std::size_t>(st)] /
             static_cast<double>(frames_total);
    };
    costs.session_sampled = sampled_ns / static_cast<double>(frames_total);
    costs.ingest = per_frame(obs::Stage::kIngest);
    costs.timing_cache = per_frame(obs::Stage::kTimingCache);
    costs.probe = per_frame(obs::Stage::kProbe);
    costs.decide = per_frame(obs::Stage::kDecide);
    costs.features = per_frame(obs::Stage::kFeatures);
    costs.forest = per_frame(obs::Stage::kForest);
  }

  // ---- dsp: SBC and the dynamic-threshold segmenter on the lane frames.
  {
    const core::DataProcessor processor(config.processing);
    const std::size_t w = processor.window_samples(rate);
    dsp::SegmenterConfig seg_config = config.processing.segmenter;
    seg_config.sample_rate_hz = rate;
    std::vector<double> energy(longest);
    std::vector<double> sbc_ns, seg_ns;
    for (int rep = 0; rep < 3; ++rep) {
      double sbc_total = 0.0, seg_total = 0.0;
      for (const std::size_t lane : lanes) {
        std::vector<dsp::SquareBasedCalculator> sbc(channels,
                                                    dsp::SquareBasedCalculator(w));
        std::int64_t t0 = now_ns();
        const std::size_t n = in.lanes[lane].frames;
        for (std::size_t k = 0; k < n; ++k) {
          const auto frame = in.frame(lane, k);
          double e = 0.0;
          for (std::size_t c = 0; c < channels; ++c) e += sbc[c].push(frame[c]);
          energy[k] = e;
        }
        std::int64_t t1 = now_ns();
        spans.add("dsp.sbc", SpanLog::kRoot, request, t0, t1);
        sbc_total += static_cast<double>(t1 - t0);
        dsp::DynamicThresholdSegmenter segmenter(seg_config);
        t0 = now_ns();
        for (std::size_t k = 0; k < n; ++k)
          static_cast<void>(segmenter.push(energy[k]));
        t1 = now_ns();
        spans.add("dsp.segmenter", SpanLog::kRoot, request++, t0, t1);
        seg_total += static_cast<double>(t1 - t0);
      }
      sbc_ns.push_back(sbc_total / static_cast<double>(frames_total));
      seg_ns.push_back(seg_total / static_cast<double>(frames_total));
    }
    metrics["dsp.sbc_ns_per_frame"] = median(sbc_ns);
    metrics["dsp.segmenter_ns_per_frame"] = median(seg_ns);
  }

  // ---- sensor: streaming artifact detectors (only where the workload's
  // policy runs them; the paced workloads run strict sessions).
  {
    double per_frame = 0.0;
    if (artifact_detectors) {
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        double total = 0.0;
        for (const std::size_t lane : lanes) {
          std::vector<sensor::ChannelArtifactDetector> det(
              channels,
              sensor::ChannelArtifactDetector(in.policy.artifact.detector));
          const std::int64_t t0 = now_ns();
          for (std::size_t k = 0; k < in.lanes[lane].frames; ++k) {
            const auto frame = in.frame(lane, k);
            for (std::size_t c = 0; c < channels; ++c) det[c].accept(frame[c]);
          }
          const std::int64_t t1 = now_ns();
          spans.add("sensor.artifact", SpanLog::kRoot, request++, t0, t1);
          total += static_cast<double>(t1 - t0);
        }
        reps.push_back(total / static_cast<double>(frames_total));
      }
      per_frame = median(reps);
    }
    metrics["sensor.artifact_ns_per_frame"] = per_frame;
  }

  // ---- decision core, ZEBRA, features, forest on labelled windows.
  {
    const std::vector<Window> windows = labelled_windows(*bundle, in, 240);
    const auto ig_samples =
        static_cast<std::size_t>(config.router.ig_threshold_s * rate);
    features::Workspace ws;
    const core::DetectRecognizer& recognizer = bundle->recognizer();
    std::vector<double> row(recognizer.bank().feature_count());
    std::vector<double> probs(recognizer.num_classes());
    std::vector<double> append_ns, probe_ns, decide_ns, zebra_ns, extract_ns,
        predict_ns;
    core::ProcessedTrace open;
    open.sample_rate_hz = rate;
    open.delta_rss2.resize(channels);
    for (const Window& w : windows) {
      const std::uint32_t req = request++;
      const std::int32_t root = spans.begin("window", SpanLog::kRoot, req);
      std::vector<std::span<const double>> chans;
      for (const auto& ch : w.view.delta_rss2) chans.emplace_back(ch);
      double deltas[core::kMaxTimingChannels];

      // Timing cache: one append per frame of the window.
      core::OpenSegmentTiming cache;
      cache.configure(channels, rate, bundle->probe_timing_config());
      cache.begin_segment();
      std::int32_t span = spans.begin("decide.timing_cache", root, req);
      for (std::size_t i = 0; i < w.length; ++i) {
        for (std::size_t c = 0; c < channels; ++c) deltas[c] = chans[c][i];
        const std::int64_t t0 = now_ns();
        cache.append({deltas, channels});
        append_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      spans.end(span);

      // Probe over the growing open window, as the session drives it:
      // once the window passes 2·I_g, every frame until a verdict.
      cache.begin_segment();
      for (auto& ch : open.delta_rss2) ch.clear();
      open.energy.clear();
      span = spans.begin("decide.probe", root, req);
      for (std::size_t i = 0; i < w.length; ++i) {
        for (std::size_t c = 0; c < channels; ++c) {
          deltas[c] = chans[c][i];
          open.delta_rss2[c].push_back(deltas[c]);
        }
        open.energy.push_back(w.view.energy[i]);
        cache.append({deltas, channels});
        if (i + 1 <= 2 * ig_samples + 2) continue;
        const std::int64_t t0 = now_ns();
        const auto est = bundle->probe_direction(open, dsp::Segment{0, i + 1},
                                                 ws, cache);
        probe_ns.push_back(static_cast<double>(now_ns() - t0));
        if (est) break;
      }
      spans.end(span);

      const dsp::Segment local{0, w.length};
      for (int rep = 0; rep < 3; ++rep) {
        std::int64_t t0 = now_ns();
        const GestureEvent event = bundle->decide(w.view, local, ws);
        std::int64_t t1 = now_ns();
        static_cast<void>(event);
        spans.add("decide.decide", root, req, t0, t1);
        decide_ns.push_back(static_cast<double>(t1 - t0));

        t0 = now_ns();
        const auto track = bundle->zebra().track(w.view, local);
        t1 = now_ns();
        static_cast<void>(track);
        spans.add("zebra.track", root, req, t0, t1);
        zebra_ns.push_back(static_cast<double>(t1 - t0));

        t0 = now_ns();
        recognizer.extract_into(chans, ws, row);
        t1 = now_ns();
        spans.add("features.extract", root, req, t0, t1);
        extract_ns.push_back(static_cast<double>(t1 - t0));

        t0 = now_ns();
        recognizer.predict_proba_into(row, ws.arena, probs);
        t1 = now_ns();
        spans.add("forest.predict", root, req, t0, t1);
        predict_ns.push_back(static_cast<double>(t1 - t0));
      }
      spans.end(root);
    }
    metrics["decide.timing_cache_ns_p50"] = median(append_ns);
    metrics["decide.probe_ns_p50"] = median(probe_ns);
    metrics["decide.probe_ns_p99"] = quantile(probe_ns, 0.99);
    metrics["decide.decide_us_p50"] = median(decide_ns) / 1e3;
    metrics["decide.decide_us_p99"] = quantile(decide_ns, 0.99) / 1e3;
    metrics["zebra.track_ns_p50"] = median(zebra_ns);
    metrics["features.extract_us_p50"] = median(extract_ns) / 1e3;
    metrics["forest.predict_us_p50"] = median(predict_ns) / 1e3;
  }
}

}  // namespace airfinger::perfbench
