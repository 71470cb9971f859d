// Tests of the ground-truth scorer. Run: perfbench_scorer_test (exit code
// 0 = all checks passed), or `ctest` in the benchmark's build directory.
#include <cmath>
#include <cstdio>

#include "scorer.hpp"

namespace {

using airfinger::core::GestureEvent;
using airfinger::core::ScrollEstimate;
using airfinger::perfbench::Label;
using airfinger::perfbench::QualityTally;
using airfinger::perfbench::score_stream;
using airfinger::synth::MotionKind;

int failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

GestureEvent detect(MotionKind kind, std::size_t begin, std::size_t end,
                    std::size_t emit_frame) {
  GestureEvent e;
  e.type = GestureEvent::Type::kDetectGesture;
  e.gesture = kind;
  e.segment_begin = begin;
  e.segment_end = end;
  e.time_s = static_cast<double>(emit_frame) / 100.0;
  return e;
}

GestureEvent scroll(GestureEvent::Type type, double direction,
                    std::size_t begin, std::size_t end,
                    std::size_t emit_frame) {
  GestureEvent e;
  e.type = type;
  e.scroll = ScrollEstimate{};
  e.scroll->direction = direction;
  e.segment_begin = begin;
  e.segment_end = end;
  e.time_s = static_cast<double>(emit_frame) / 100.0;
  return e;
}

void right_detect_gesture_is_found() {
  const std::vector<Label> labels{{400, 500, MotionKind::kCircle}};
  const auto t = score_stream(
      labels, {detect(MotionKind::kCircle, 390, 510, 520)}, 300, 2000, 100.0);
  CHECK(t.gestures == 1 && t.gestures_found == 1);
  CHECK(t.emissions == 1 && t.emissions_right == 1);
  CHECK(t.false_triggers == 0);
  CHECK(t.onset_to_emit.size() == 1 && t.onset_to_emit[0] == 120);
  CHECK(t.idle_frames == 1700 - 100);
}

void wrong_class_is_neither_found_nor_false_trigger() {
  const std::vector<Label> labels{{400, 500, MotionKind::kCircle}};
  const auto t = score_stream(
      labels, {detect(MotionKind::kRub, 390, 510, 520)}, 300, 2000, 100.0);
  CHECK(t.gestures == 1 && t.gestures_found == 0);
  CHECK(t.emissions == 1 && t.emissions_right == 0);
  CHECK(t.false_triggers == 0);
  CHECK(t.recall() == 0.0 && t.precision() == 0.0);
}

void idle_and_unintentional_emissions_are_false_triggers() {
  const std::vector<Label> labels{{400, 500, MotionKind::kScratch}};
  const std::vector<GestureEvent> events{
      detect(MotionKind::kClick, 420, 480, 490),   // on a scratch
      detect(MotionKind::kClick, 900, 950, 960),   // in idle
  };
  GestureEvent rejected = detect(MotionKind::kClick, 1200, 1250, 1260);
  rejected.type = GestureEvent::Type::kNonGesture;
  rejected.gesture.reset();
  std::vector<GestureEvent> with_rejection = events;
  with_rejection.push_back(rejected);
  const auto t = score_stream(labels, with_rejection, 300, 6300, 100.0);
  CHECK(t.gestures == 0);
  CHECK(t.emissions == 2 && t.false_triggers == 2);
  CHECK(t.idle_frames == 6000);  // a scratch is not a designed gesture
  CHECK(std::abs(t.false_triggers_per_idle_min(100.0) - 2.0) < 1e-12);
}

void scroll_direction_decides_the_match() {
  const std::vector<Label> labels{{400, 480, MotionKind::kScrollUp}};
  const std::vector<GestureEvent> events{
      scroll(GestureEvent::Type::kScrollDirection, +1.0, 395, 430, 430),
      scroll(GestureEvent::Type::kScrollDetected, -1.0, 395, 490, 500),
  };
  const auto t = score_stream(labels, events, 300, 2000, 100.0);
  CHECK(t.gestures == 1 && t.gestures_found == 1);
  CHECK(t.emissions == 2 && t.emissions_right == 1);
  CHECK(t.onset_to_emit.size() == 1 && t.onset_to_emit[0] == 30);
}

void labels_outside_the_window_are_dont_care() {
  const std::vector<Label> labels{{250, 350, MotionKind::kCircle},
                                  {1900, 2100, MotionKind::kRub}};
  const std::vector<GestureEvent> events{
      detect(MotionKind::kClick, 310, 360, 370),    // overlaps early label
      detect(MotionKind::kClick, 1950, 2050, 2060), // overlaps late label
      detect(MotionKind::kClick, 200, 260, 270),    // starts before window
  };
  const auto t = score_stream(labels, events, 300, 2000, 100.0);
  CHECK(t.gestures == 0 && t.emissions == 0 && t.false_triggers == 0);
}

void idle_emissions_in_the_tail_are_not_scored() {
  // The tail after window_end is not counted as idle time, so an emission
  // starting there must not count as a false trigger either.
  const std::vector<Label> labels{{400, 500, MotionKind::kCircle}};
  const std::vector<GestureEvent> events{
      detect(MotionKind::kCircle, 390, 510, 520),
      detect(MotionKind::kClick, 2000, 2040, 2050),  // starts at window_end
      detect(MotionKind::kClick, 2080, 2120, 2130),  // wholly in the tail
  };
  const auto t = score_stream(labels, events, 300, 2000, 100.0);
  CHECK(t.emissions == 1 && t.emissions_right == 1);
  CHECK(t.false_triggers == 0);
  CHECK(t.idle_frames == 1700 - 100);
}

void merged_tallies_aggregate() {
  QualityTally a, b;
  a.gestures = 4;
  a.gestures_found = 3;
  a.emissions = 5;
  a.emissions_right = 4;
  a.onset_to_emit = {10, 30, 400};  // a long tail moves a mean, not a median
  b.gestures = 6;
  b.gestures_found = 5;
  b.emissions = 5;
  b.emissions_right = 4;
  b.onset_to_emit = {20, 25};
  a.merge(b);
  CHECK(std::abs(a.recall() - 0.8) < 1e-12);
  CHECK(std::abs(a.precision() - 0.8) < 1e-12);
  CHECK(a.onset_to_emit_p50() == 25.0);
}

}  // namespace

int main() {
  right_detect_gesture_is_found();
  wrong_class_is_neither_found_nor_false_trigger();
  idle_and_unintentional_emissions_are_false_triggers();
  scroll_direction_decides_the_match();
  labels_outside_the_window_are_dont_care();
  idle_emissions_in_the_tail_are_not_scored();
  merged_tallies_aggregate();
  if (failures) {
    std::fprintf(stderr, "perfbench_scorer_test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_scorer_test: all checks passed\n");
  return 0;
}
