#include "scorer.hpp"

#include <algorithm>
#include <cmath>

namespace airfinger::perfbench {

namespace {

using core::GestureEvent;
using synth::MotionKind;

bool overlaps(std::size_t a_begin, std::size_t a_end, std::size_t b_begin,
              std::size_t b_end) {
  return a_begin < b_end && b_begin < a_end;
}

bool is_emission(const GestureEvent& e) {
  return e.type != GestureEvent::Type::kNonGesture;
}

/// True when `e` names the labelled motion `kind` correctly.
bool right_class(const GestureEvent& e, MotionKind kind) {
  if (e.type == GestureEvent::Type::kDetectGesture)
    return e.gesture && *e.gesture == kind;
  if (!e.scroll) return false;
  if (kind == MotionKind::kScrollUp) return e.scroll->direction > 0.0;
  if (kind == MotionKind::kScrollDown) return e.scroll->direction < 0.0;
  return false;
}

}  // namespace

void QualityTally::merge(const QualityTally& other) {
  gestures += other.gestures;
  gestures_found += other.gestures_found;
  emissions += other.emissions;
  emissions_right += other.emissions_right;
  false_triggers += other.false_triggers;
  idle_frames += other.idle_frames;
  onset_to_emit.insert(onset_to_emit.end(), other.onset_to_emit.begin(),
                       other.onset_to_emit.end());
}

double QualityTally::recall() const {
  return gestures ? static_cast<double>(gestures_found) /
                        static_cast<double>(gestures)
                  : 0.0;
}

double QualityTally::precision() const {
  return emissions ? static_cast<double>(emissions_right) /
                         static_cast<double>(emissions)
                   : 0.0;
}

double QualityTally::false_triggers_per_idle_min(double rate_hz) const {
  const double minutes = static_cast<double>(idle_frames) / rate_hz / 60.0;
  return minutes > 0.0 ? static_cast<double>(false_triggers) / minutes : 0.0;
}

double QualityTally::onset_to_emit_p50() const {
  if (onset_to_emit.empty()) return 0.0;
  std::vector<std::uint32_t> d = onset_to_emit;
  const auto mid = d.begin() + static_cast<long>((d.size() - 1) / 2);
  std::nth_element(d.begin(), mid, d.end());
  return *mid;
}

QualityTally score_stream(const std::vector<Label>& labels,
                          const std::vector<core::GestureEvent>& events,
                          std::size_t window_begin, std::size_t window_end,
                          double rate_hz) {
  QualityTally t;
  const auto in_window = [&](const Label& l) {
    return l.begin >= window_begin && l.end <= window_end;
  };
  std::vector<long> first_emit(labels.size(), -1);

  std::uint64_t gesture_frames = 0;
  for (const Label& l : labels) {
    if (!synth::is_gesture(l.kind)) continue;
    const std::size_t b = std::max(l.begin, window_begin);
    const std::size_t e = std::min(l.end, window_end);
    if (e > b) gesture_frames += e - b;
  }
  t.idle_frames = window_end > window_begin
                      ? window_end - window_begin - gesture_frames
                      : 0;

  for (const GestureEvent& e : events) {
    if (!is_emission(e) || e.segment_begin < window_begin ||
        e.segment_begin >= window_end)
      continue;
    const std::size_t end = std::max(e.segment_end, e.segment_begin + 1);
    bool dont_care = false;
    bool on_gesture = false;
    bool right = false;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const Label& l = labels[i];
      if (!overlaps(e.segment_begin, end, l.begin, l.end)) continue;
      if (!in_window(l)) {
        dont_care = true;
        break;
      }
      if (!synth::is_gesture(l.kind)) continue;
      on_gesture = true;
      if (right_class(e, l.kind)) right = true;
    }
    if (dont_care) continue;
    ++t.emissions;
    if (!on_gesture) ++t.false_triggers;
    if (!right) continue;
    ++t.emissions_right;
    const auto frame = static_cast<long>(std::llround(e.time_s * rate_hz));
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const Label& l = labels[i];
      if (first_emit[i] < 0 && synth::is_gesture(l.kind) &&
          overlaps(e.segment_begin, end, l.begin, l.end) &&
          right_class(e, l.kind))
        first_emit[i] = frame;
    }
  }

  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Label& l = labels[i];
    if (!synth::is_gesture(l.kind) || !in_window(l)) continue;
    ++t.gestures;
    if (first_emit[i] < 0) continue;
    ++t.gestures_found;
    const long delay = first_emit[i] - static_cast<long>(l.begin);
    t.onset_to_emit.push_back(static_cast<std::uint32_t>(std::max(0L, delay)));
  }
  return t;
}

}  // namespace airfinger::perfbench
