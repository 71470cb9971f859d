#include "core/model_bundle.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include <chrono>

#include "common/error.hpp"
#include "ml/serialize.hpp"
#include "obs/pipeline.hpp"

namespace airfinger::core {

std::string GestureEvent::describe() const {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "[t=" << time_s << "s] ";
  switch (type) {
    case Type::kDetectGesture:
      os << "gesture: " << (gesture ? synth::motion_name(*gesture) : "?");
      break;
    case Type::kScrollDetected:
      os << "scroll "
         << (scroll && scroll->direction > 0 ? "up" : "down")
         << " v=" << (scroll ? scroll->velocity_mps * 1000.0 : 0.0)
         << "mm/s D=" << (scroll ? scroll->final_displacement() * 1000.0 : 0.0)
         << "mm";
      break;
    case Type::kScrollDirection:
      os << "scroll direction: "
         << (scroll && scroll->direction > 0 ? "up" : "down")
         << " (early)";
      break;
    case Type::kNonGesture:
      os << "rejected non-gesture";
      break;
  }
  return os.str();
}

ModelBundle::ModelBundle(AirFingerConfig config, DetectRecognizer recognizer,
                         std::optional<InterferenceFilter> filter)
    : config_(config),
      recognizer_(std::move(recognizer)),
      filter_(std::move(filter)),
      router_(config.router),
      zebra_(config.zebra),
      timing_shared_(config.router.timing == config.zebra.timing) {
  AF_EXPECT(config_.sample_rate_hz > 0.0, "sample rate must be positive");
  AF_EXPECT(config_.channels >= 2, "engine requires at least two channels");
  AF_EXPECT(config_.channels <= kMaxTimingChannels,
            "engine supports at most kMaxTimingChannels channels");
  AF_EXPECT(recognizer_.is_fitted(),
            "ModelBundle requires a fitted recognizer");
  AF_EXPECT(!config_.interference_filtering || (filter_ &&
                filter_->is_fitted()),
            "interference filtering enabled but no fitted filter given");
}

std::shared_ptr<const ModelBundle> ModelBundle::create(
    AirFingerConfig config, DetectRecognizer recognizer,
    std::optional<InterferenceFilter> filter) {
  return std::make_shared<const ModelBundle>(config, std::move(recognizer),
                                             std::move(filter));
}

GestureEvent ModelBundle::decide(const ProcessedTrace& view,
                                 const dsp::Segment& local) const {
  features::Workspace workspace;
  return decide(view, local, workspace);
}

namespace {

/// Per-channel span views of a padded segment window, held in the arena.
std::span<const std::span<const double>> window_spans(
    const ProcessedTrace& view, const dsp::Segment& padded,
    common::ScratchArena& arena) {
  const auto windows =
      arena.alloc<std::span<const double>>(view.delta_rss2.size());
  for (std::size_t c = 0; c < windows.size(); ++c)
    windows[c] = {view.delta_rss2[c].data() + padded.begin, padded.length()};
  return windows;
}

}  // namespace

std::optional<ScrollEstimate> ModelBundle::probe_direction(
    const ProcessedTrace& view, const dsp::Segment& local,
    features::Workspace& workspace) const {
  AF_EXPECT(local.end <= view.energy.size() && local.begin < local.end,
            "segment out of range");
  AF_EXPECT(view.sample_rate_hz > 0.0, "invalid sample rate");
  common::ScratchArena& arena = workspace.arena;
  const auto probe_frame = arena.frame();

  const dsp::Segment padded =
      pad_segment(local, view.energy.size(),
                  router_.config().timing.analysis_pad_s, view.sample_rate_hz);
  const auto windows = window_spans(view, padded, arena);
  const SegmentTiming timing = segment_timing(
      windows, view.sample_rate_hz, router_.config().timing, arena);
  if (router_.route_timing(timing) != GestureCategory::kTrackAimed)
    return std::nullopt;
  obs::Span zebra_span(workspace.obs, obs::Stage::kZebra);
  if (timing_shared_)
    return zebra_.track_timing(timing, windows, local, view.sample_rate_hz);
  return zebra_.track(view, local);
}

std::optional<ScrollEstimate> ModelBundle::probe_direction(
    const ProcessedTrace& view, const dsp::Segment& local,
    features::Workspace& workspace, OpenSegmentTiming& cache) const {
  AF_EXPECT(local.end <= view.energy.size() && local.begin < local.end,
            "segment out of range");
  AF_EXPECT(view.sample_rate_hz > 0.0, "invalid sample rate");
  common::ScratchArena& arena = workspace.arena;
  const auto probe_frame = arena.frame();

  // The probe always analyses the full open-segment view, so the analysis
  // padding cannot extend past it — the padded window is the view itself,
  // which is exactly what the incremental cache covers.
  const dsp::Segment padded =
      pad_segment(local, view.energy.size(),
                  router_.config().timing.analysis_pad_s, view.sample_rate_hz);
  AF_ASSERT(padded.begin == 0 && padded.end == view.energy.size() &&
                cache.size() == view.energy.size(),
            "timing cache out of sync with the open-segment view");
  const auto windows = window_spans(view, padded, arena);
  // Change-detection gate: refresh() advances the cache's decision state
  // and proves whether anything the router reads moved bits since the
  // previous probe. If nothing did and that probe concluded "no emission",
  // this one would too (the verdict is a pure function of the unchanged
  // statistics) — return the cached nullopt without routing. Emission
  // verdicts are never short-circuited: the estimate's duration grows
  // with the window even when the timing state does not.
  const bool changed = cache.refresh(windows);
  if (!changed && cache.probe_verdict_no_emit()) return std::nullopt;
  const SegmentTiming timing = cache.timing(windows, view.energy);
  if (router_.route_timing(timing) != GestureCategory::kTrackAimed) {
    cache.record_probe_verdict_no_emit(true);
    return std::nullopt;
  }
  cache.record_probe_verdict_no_emit(false);
  obs::Span zebra_span(workspace.obs, obs::Stage::kZebra);
  if (timing_shared_)
    return zebra_.track_timing(timing, windows, local, view.sample_rate_hz);
  return zebra_.track(view, local);
}

GestureEvent ModelBundle::decide(const ProcessedTrace& view,
                                 const dsp::Segment& local,
                                 features::Workspace& workspace) const {
  AF_EXPECT(local.end <= view.energy.size() && local.begin < local.end,
            "segment out of range");
  AF_EXPECT(view.sample_rate_hz > 0.0, "invalid sample rate");
  common::ScratchArena& arena = workspace.arena;
  const auto decide_frame = arena.frame();

  GestureEvent event;
  const dsp::Segment padded_route =
      pad_segment(local, view.energy.size(),
                  router_.config().timing.analysis_pad_s, view.sample_rate_hz);
  const auto route_windows = window_spans(view, padded_route, arena);
  const SegmentTiming timing = segment_timing(
      route_windows, view.sample_rate_hz, router_.config().timing, arena);
  GestureCategory category = router_.route_timing(timing);

  // Hybrid routing: let the eight-class recognizer veto the rule when it
  // is confident the rule misrouted (see AirFingerConfig::hybrid_routing).
  // The feature row and probabilities live in the arena until this decide
  // frame unwinds.
  std::span<double> row;
  std::span<double> proba;
  auto ensure_classified = [&] {
    if (row.empty()) {
      const dsp::Segment padded =
          pad_segment(local, view.energy.size(),
                      config_.processing.feature_pad_s, view.sample_rate_hz);
      const auto windows = window_spans(view, padded, arena);
      row = arena.alloc<double>(recognizer_.bank().feature_count());
      {
        obs::Span span(workspace.obs, obs::Stage::kFeatures);
        recognizer_.extract_into(windows, workspace, row);
      }
      proba = arena.alloc<double>(recognizer_.num_classes());
      {
        obs::Span span(workspace.obs, obs::Stage::kForest);
        recognizer_.predict_proba_into(row, arena, proba);
      }
    }
  };
  if (config_.hybrid_routing) {
    ensure_classified();
    const int best = static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    const double margin = proba[static_cast<std::size_t>(best)];
    const bool classifier_says_track =
        synth::is_track_aimed(static_cast<synth::MotionKind>(best));
    if (margin >= config_.hybrid_override_margin) {
      category = classifier_says_track ? GestureCategory::kTrackAimed
                                       : GestureCategory::kDetectAimed;
    }
  }

  if (category == GestureCategory::kTrackAimed) {
    // When router and ZEBRA share one TimingConfig the routing timing is
    // exactly what ZEBRA would recompute — reuse it.
    const auto estimate = [&] {
      obs::Span span(workspace.obs, obs::Stage::kZebra);
      return timing_shared_ ? zebra_.track_timing(timing, route_windows,
                                                  local, view.sample_rate_hz)
                            : zebra_.track(view, local);
    }();
    if (estimate) {
      event.type = GestureEvent::Type::kScrollDetected;
      event.scroll = *estimate;
      return event;
    }
    // ZEBRA saw nothing decisive: fall through to the detect path.
  }

  ensure_classified();
  if (filter_ && config_.interference_filtering &&
      filter_->gesture_probability_with(row, arena) <
          config_.rejection_threshold) {
    event.type = GestureEvent::Type::kNonGesture;
    return event;
  }

  int label = static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  if (synth::is_track_aimed(static_cast<synth::MotionKind>(label))) {
    // The recognizer itself says scroll (rule and veto disagreed): pick the
    // best detect-aimed class instead.
    double best_p = -1.0;
    int best_label = 0;
    for (std::size_t c = 0; c < proba.size(); ++c) {
      if (synth::is_track_aimed(static_cast<synth::MotionKind>(c))) continue;
      if (proba[c] > best_p) {
        best_p = proba[c];
        best_label = static_cast<int>(c);
      }
    }
    label = best_label;
  }
  event.type = GestureEvent::Type::kDetectGesture;
  event.gesture = static_cast<synth::MotionKind>(label);
  return event;
}

std::vector<GestureEvent> ModelBundle::classify_recording(
    const sensor::MultiChannelTrace& trace) const {
  AF_EXPECT(trace.channel_count() == config_.channels,
            "trace channel count mismatch");
  DataProcessorConfig proc_config = config_.processing;
  proc_config.segmenter.sample_rate_hz = trace.sample_rate_hz();
  const DataProcessor processor(proc_config);
  const ProcessedTrace processed = processor.process(trace);

  std::vector<GestureEvent> events;
  features::Workspace workspace;  // reused across the recording's segments
  for (const auto& segment : processed.segments) {
    GestureEvent event = decide(processed, segment, workspace);
    event.time_s =
        static_cast<double>(segment.end) / trace.sample_rate_hz();
    event.segment_begin = segment.begin;
    event.segment_end = segment.end;
    events.push_back(event);
  }
  return events;
}

// -------------------------------------------------------------- artifact

namespace {

void write_scalar(std::ostream& os, const char* key, double v) {
  os << key << ' ';
  ml::detail::write_double(os, v);
  os << "\n";
}

double read_scalar(std::istream& is, const char* key) {
  ml::detail::expect_tag(is, key);
  return ml::detail::read_double(is);
}

void write_count(std::ostream& os, const char* key, std::size_t v) {
  os << key << ' ' << v << "\n";
}

std::size_t read_count(std::istream& is, const char* key) {
  ml::detail::expect_tag(is, key);
  std::size_t v = 0;
  is >> v;
  AF_EXPECT(is.good(), std::string("serialized bundle: malformed '") + key +
                           "' value");
  return v;
}

void write_flag(std::ostream& os, const char* key, bool v) {
  os << key << ' ' << (v ? 1 : 0) << "\n";
}

bool read_flag(std::istream& is, const char* key) {
  const std::size_t v = read_count(is, key);
  AF_EXPECT(v <= 1, std::string("serialized bundle: '") + key +
                        "' must be 0 or 1");
  return v == 1;
}

/// Reads past a `key <count>` line when the stream holds one next, for a
/// field that older artifacts carry and nothing reads any more; otherwise
/// leaves the stream where it was.
void skip_retired_count(std::istream& is, const char* key) {
  const std::istream::pos_type mark = is.tellg();
  std::string tag;
  const bool present = static_cast<bool>(is >> tag) && tag == key;
  is.clear();
  is.seekg(mark);
  if (present) read_count(is, key);
}

/// FNV-1a 64-bit over the artifact payload. The footer this feeds lets
/// load() reject any bit corruption before a single model byte is parsed.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr const char kChecksumKey[] = "checksum ";

}  // namespace

void ModelBundle::save(std::ostream& os) const {
  // The artifact is written as payload + integrity footer: a final line
  // `checksum <decimal FNV-1a64 of every preceding byte>`. load() verifies
  // the footer before parsing, so truncation or bit corruption anywhere in
  // the file is rejected up front instead of surfacing as a half-parsed
  // model (or an absurd allocation from a corrupted count).
  std::ostringstream payload;
  save_payload(payload);
  const std::string bytes = payload.str();
  os << bytes << kChecksumKey << fnv1a64(bytes) << "\n";
}

void ModelBundle::save_payload(std::ostream& os) const {
  os << "afbundle " << kFormatVersion << "\n";
  // Engine-level scalars. Train-time outputs (notably the fitted ZEBRA
  // velocity gain) travel with the artifact; structural configuration is
  // re-supplied at load (see the header contract).
  write_scalar(os, "sample_rate_hz", config_.sample_rate_hz);
  write_count(os, "channels", config_.channels);
  write_flag(os, "interference_filtering", config_.interference_filtering);
  write_flag(os, "hybrid_routing", config_.hybrid_routing);
  write_scalar(os, "hybrid_override_margin", config_.hybrid_override_margin);
  write_scalar(os, "rejection_threshold", config_.rejection_threshold);
  write_scalar(os, "sbc_window_s", config_.processing.sbc_window_s);
  write_scalar(os, "feature_pad_s", config_.processing.feature_pad_s);
  write_scalar(os, "ig_threshold_s", config_.router.ig_threshold_s);
  write_scalar(os, "asymmetry_threshold",
               config_.router.asymmetry_threshold);
  write_scalar(os, "monotone_fraction", config_.router.monotone_fraction);
  write_scalar(os, "pd_span_m", config_.zebra.pd_span_m);
  write_scalar(os, "experience_velocity_mps",
               config_.zebra.experience_velocity_mps);
  write_scalar(os, "velocity_gain", config_.zebra.velocity_gain);
  os << "recognizer\n";
  recognizer_.save(os);
  write_flag(os, "filter", filter_.has_value());
  if (filter_) filter_->save(os);
  os << "end\n";
}

void ModelBundle::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  AF_EXPECT(static_cast<bool>(os),
            "cannot open bundle file for writing: " + path);
  save(os);
  AF_EXPECT(static_cast<bool>(os), "failed writing bundle file: " + path);
}

std::shared_ptr<const ModelBundle> ModelBundle::load(std::istream& is,
                                                     AirFingerConfig base) {
  const auto load_start = std::chrono::steady_clock::now();
  // Slurp and verify the integrity footer before parsing anything: a
  // corrupted artifact must never reach the model loaders (where a flipped
  // count would otherwise trigger absurd allocations or a half-built
  // bundle). Artifacts are small (one trained model set), so buffering the
  // whole stream is cheap.
  std::string blob{std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>()};
  AF_EXPECT(!blob.empty(), "bundle artifact is empty");
  AF_EXPECT(blob.back() == '\n',
            "bundle artifact is truncated (missing trailing newline)");
  const std::size_t key_len = std::string_view(kChecksumKey).size();
  const std::size_t pos = blob.rfind(kChecksumKey);
  AF_EXPECT(pos != std::string::npos && pos > 0 && blob[pos - 1] == '\n',
            "bundle artifact is missing its integrity footer");
  AF_EXPECT(blob.find('\n', pos) == blob.size() - 1,
            "bundle artifact has data after its integrity footer");
  const std::string_view digits(blob.data() + pos + key_len,
                                blob.size() - 1 - (pos + key_len));
  std::uint64_t stored = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), stored);
  AF_EXPECT(ec == std::errc{} && ptr == digits.data() + digits.size() &&
                !digits.empty(),
            "bundle artifact has a malformed integrity footer");
  const std::string_view payload(blob.data(), pos);
  AF_EXPECT(fnv1a64(payload) == stored,
            "bundle artifact failed its integrity check (corrupt or "
            "truncated)");
  std::istringstream payload_stream{std::string(payload)};
  auto bundle = load_payload(payload_stream, base);
  bundle->load_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - load_start)
          .count());
  return bundle;
}

std::shared_ptr<ModelBundle> ModelBundle::load_payload(std::istream& is,
                                                       AirFingerConfig base) {
  ml::detail::expect_tag(is, "afbundle");
  int version = 0;
  is >> version;
  AF_EXPECT(is.good() && version == kFormatVersion,
            "unsupported bundle format version");

  AirFingerConfig config = base;
  config.sample_rate_hz = read_scalar(is, "sample_rate_hz");
  config.channels = read_count(is, "channels");
  config.interference_filtering = read_flag(is, "interference_filtering");
  config.hybrid_routing = read_flag(is, "hybrid_routing");
  config.hybrid_override_margin =
      read_scalar(is, "hybrid_override_margin");
  skip_retired_count(is, "history_limit");
  config.rejection_threshold = read_scalar(is, "rejection_threshold");
  config.processing.sbc_window_s = read_scalar(is, "sbc_window_s");
  config.processing.feature_pad_s = read_scalar(is, "feature_pad_s");
  config.router.ig_threshold_s = read_scalar(is, "ig_threshold_s");
  config.router.asymmetry_threshold =
      read_scalar(is, "asymmetry_threshold");
  config.router.monotone_fraction = read_scalar(is, "monotone_fraction");
  config.zebra.pd_span_m = read_scalar(is, "pd_span_m");
  config.zebra.experience_velocity_mps =
      read_scalar(is, "experience_velocity_mps");
  config.zebra.velocity_gain = read_scalar(is, "velocity_gain");

  ml::detail::expect_tag(is, "recognizer");
  DetectRecognizer recognizer =
      DetectRecognizer::load(is, config.recognizer);
  std::optional<InterferenceFilter> filter;
  if (read_flag(is, "filter"))
    filter = InterferenceFilter::load(is, recognizer.bank(),
                                      config.interference);
  ml::detail::expect_tag(is, "end");
  return std::make_shared<ModelBundle>(config, std::move(recognizer),
                                       std::move(filter));
}

std::shared_ptr<const ModelBundle> ModelBundle::load_file(
    const std::string& path, AirFingerConfig base) {
  std::ifstream is(path, std::ios::binary);
  AF_EXPECT(static_cast<bool>(is), "cannot open bundle file: " + path);
  return load(is, base);
}

}  // namespace airfinger::core
