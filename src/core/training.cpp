#include "core/training.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/model_bundle.hpp"

namespace airfinger::core {

int label_for(synth::MotionKind kind, LabelScheme scheme) {
  using synth::MotionKind;
  switch (scheme) {
    case LabelScheme::kDetectSix:
      return synth::is_detect_aimed(kind) ? static_cast<int>(kind) : -1;
    case LabelScheme::kAllEight:
      return synth::is_gesture(kind) ? static_cast<int>(kind) : -1;
    case LabelScheme::kGestureVsNonGesture:
      return synth::is_gesture(kind) ? 1 : 0;
  }
  return -1;
}

std::vector<std::string> class_names(LabelScheme scheme) {
  std::vector<std::string> names;
  switch (scheme) {
    case LabelScheme::kDetectSix:
      for (auto k : synth::detect_gestures())
        names.emplace_back(synth::motion_name(k));
      break;
    case LabelScheme::kAllEight:
      for (auto k : synth::all_gestures())
        names.emplace_back(synth::motion_name(k));
      break;
    case LabelScheme::kGestureVsNonGesture:
      names = {"non-gesture", "gesture"};
      break;
  }
  return names;
}

int class_count(LabelScheme scheme) {
  switch (scheme) {
    case LabelScheme::kDetectSix: return 6;
    case LabelScheme::kAllEight: return 8;
    case LabelScheme::kGestureVsNonGesture: return 2;
  }
  return 0;
}

ml::SampleSet build_feature_set(const synth::Dataset& dataset,
                                const DataProcessor& processor,
                                const features::FeatureBank& bank,
                                LabelScheme scheme, GroupScheme groups) {
  // Feature extraction is independent per sample (processor and bank are
  // immutable); rows are computed in parallel into per-sample slots, then
  // appended in dataset order so the output is identical to the serial loop.
  struct Row {
    std::vector<double> features;
    int label = -1;
    int group = 0;
    bool valid = false;
  };
  std::vector<Row> rows(dataset.size());
  common::parallel_for(0, dataset.size(), [&](std::size_t i) {
    const auto& sample = dataset.samples[i];
    const int label = label_for(sample.kind, scheme);
    if (label < 0) return;

    const ProcessedTrace processed = processor.process(sample.trace);
    const double rate = sample.trace.sample_rate_hz();
    const auto truth_begin = static_cast<std::size_t>(
        std::lround(sample.gesture_start_s * rate));
    const auto truth_end = static_cast<std::size_t>(
        std::lround(sample.gesture_end_s * rate));
    const dsp::Segment raw_seg =
        DataProcessor::select_segment(processed, truth_begin, truth_end);
    if (raw_seg.length() < 4) return;  // unextractable blip
    const dsp::Segment seg =
        pad_segment(raw_seg, processed.energy.size(),
                    processor.config().feature_pad_s, rate);

    std::vector<std::span<const double>> windows;
    windows.reserve(processed.delta_rss2.size());
    for (const auto& ch : processed.delta_rss2)
      windows.emplace_back(ch.data() + seg.begin, seg.length());
    Row& row = rows[i];
    // One scratch arena per worker thread (DESIGN.md §11): after the first
    // sample sizes it, extraction stops touching the heap. extract_into is
    // bit-identical to extract, so parallel determinism is unaffected.
    row.features.resize(bank.feature_count());
    bank.extract_into(std::span<const std::span<const double>>(windows),
                      features::thread_workspace(), row.features);
    row.label = label;
    switch (groups) {
      case GroupScheme::kNone: break;
      case GroupScheme::kUser: row.group = sample.user_id; break;
      case GroupScheme::kSession: row.group = sample.session_id; break;
    }
    row.valid = true;
  });

  ml::SampleSet set;
  set.features.reserve(dataset.size());
  set.labels.reserve(dataset.size());
  for (auto& row : rows) {
    if (!row.valid) continue;
    set.features.push_back(std::move(row.features));
    set.labels.push_back(row.label);
    if (groups != GroupScheme::kNone) set.groups.push_back(row.group);
  }
  set.validate();
  return set;
}

SeriesSet build_series_set(const synth::Dataset& dataset,
                           const DataProcessor& processor,
                           LabelScheme scheme) {
  SeriesSet out;
  for (const auto& sample : dataset.samples) {
    const int label = label_for(sample.kind, scheme);
    if (label < 0) continue;
    const ProcessedTrace processed = processor.process(sample.trace);
    const double rate = sample.trace.sample_rate_hz();
    const dsp::Segment raw_seg = DataProcessor::select_segment(
        processed,
        static_cast<std::size_t>(std::lround(sample.gesture_start_s * rate)),
        static_cast<std::size_t>(std::lround(sample.gesture_end_s * rate)));
    if (raw_seg.length() < 4) continue;
    const dsp::Segment seg =
        pad_segment(raw_seg, processed.energy.size(),
                    processor.config().feature_pad_s, rate);
    out.series.emplace_back(processed.energy.begin() +
                                static_cast<long>(seg.begin),
                            processed.energy.begin() +
                                static_cast<long>(seg.end));
    out.labels.push_back(label);
  }
  return out;
}

ml::ConfusionMatrix evaluate_split(ml::Classifier& classifier,
                                   const ml::SampleSet& data,
                                   const ml::Split& split, int num_classes,
                                   std::vector<std::string> names) {
  classifier.fit(data.subset(split.train));
  ml::ConfusionMatrix cm(num_classes, std::move(names));
  for (std::size_t i : split.test)
    cm.add(data.labels[i], classifier.predict(data.features[i]));
  return cm;
}

ml::ConfusionMatrix evaluate_split(DetectRecognizer& recognizer,
                                   const ml::SampleSet& data,
                                   const ml::Split& split, int num_classes,
                                   std::vector<std::string> names) {
  recognizer.fit(data.subset(split.train));
  ml::ConfusionMatrix cm(num_classes, std::move(names));
  for (std::size_t i : split.test)
    cm.add(data.labels[i], recognizer.predict(data.features[i]));
  return cm;
}

PipelineVerdict run_sample(const ModelBundle& bundle,
                           const synth::GestureSample& sample) {
  const std::vector<GestureEvent> events =
      bundle.classify_recording(sample.trace);

  const double rate = sample.trace.sample_rate_hz();
  const double mid =
      0.5 * (sample.gesture_start_s + sample.gesture_end_s) * rate;

  PipelineVerdict verdict;
  double best_distance = 1e18;
  for (const auto& e : events) {
    if (e.type == GestureEvent::Type::kScrollDirection)
      continue;  // early hint, not a final verdict
    const double centre =
        0.5 * (static_cast<double>(e.segment_begin) +
               static_cast<double>(e.segment_end));
    const double distance = std::fabs(centre - mid);
    if (distance >= best_distance) continue;
    best_distance = distance;
    verdict.detected = true;
    verdict.rejected = e.type == GestureEvent::Type::kNonGesture;
    verdict.predicted.reset();
    verdict.scroll.reset();
    if (e.type == GestureEvent::Type::kDetectGesture) {
      verdict.predicted = e.gesture;
    } else if (e.type == GestureEvent::Type::kScrollDetected) {
      verdict.scroll = e.scroll;
      verdict.predicted = (e.scroll && e.scroll->direction < 0)
                              ? synth::MotionKind::kScrollDown
                              : synth::MotionKind::kScrollUp;
    }
  }
  return verdict;
}

}  // namespace airfinger::core
