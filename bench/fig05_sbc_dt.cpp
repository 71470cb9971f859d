// Fig. 5 — results of the SBC and DT algorithms: noise mitigation and
// gesture segmentation on a continuous multi-gesture stream.
//
// Reproduces the paper's before/after demonstration: (a) original RSS
// readings with ambient noise and hand reflections, (b) ΔRSS² after SBC
// with the dynamically thresholded gesture segments. Also runs the
// fixed-vs-dynamic-threshold ablation DESIGN.md calls out.
#include <iostream>

#include "common/csv.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "support.hpp"

using namespace airfinger;

namespace {

/// Intersection-over-union of a detected segment set against ground truth.
double segmentation_iou(
    const std::vector<dsp::Segment>& detected,
    const std::vector<std::pair<std::size_t, std::size_t>>& truth) {
  double total_iou = 0.0;
  for (const auto& [b, e] : truth) {
    double best = 0.0;
    for (const auto& seg : detected) {
      const double inter =
          static_cast<double>(std::min(seg.end, e)) -
          static_cast<double>(std::max(seg.begin, b));
      if (inter <= 0.0) continue;
      const double uni = static_cast<double>(std::max(seg.end, e) -
                                             std::min(seg.begin, b));
      best = std::max(best, inter / uni);
    }
    total_iou += best;
  }
  return truth.empty() ? 0.0 : total_iou / static_cast<double>(truth.size());
}

}  // namespace

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig05_sbc_dt",
      "Fig. 5: SBC noise mitigation + DT gesture segmentation");
  if (!args) return 0;

  synth::CollectionConfig config = bench::protocol(*args);
  const std::vector<synth::MotionKind> sequence{
      synth::MotionKind::kCircle,     synth::MotionKind::kClick,
      synth::MotionKind::kRub,        synth::MotionKind::kDoubleClick,
      synth::MotionKind::kScrollUp,   synth::MotionKind::kDoubleRub,
  };
  const auto stream = synth::make_gesture_stream(config, sequence,
                                                 args->seed ^ 0xF16);

  const core::DataProcessor processor;
  const auto processed = processor.process(stream.trace);

  common::print_banner(std::cout, "Fig. 5(a) — original RSS statistics");
  const auto sum = stream.trace.summed();
  std::cout << "  summed RSS: mean " << common::Table::num(common::mean(sum))
            << " counts, sd " << common::Table::num(common::stddev(sum))
            << " (static offsets + ambient drift dominate)\n";

  common::print_banner(std::cout, "Fig. 5(b) — ΔRSS² after SBC + DT");
  std::cout << "  ΔRSS² idle median "
            << common::Table::num(common::median(processed.energy))
            << "; detected " << processed.segments.size()
            << " gestures (ground truth: " << stream.gesture_bounds.size()
            << ")\n  segments:";
  for (const auto& seg : processed.segments)
    std::cout << " [" << seg.begin << "," << seg.end << ")";
  std::cout << "\n  ground truth:";
  for (const auto& [b, e] : stream.gesture_bounds)
    std::cout << " [" << b << "," << e << ")";
  const double iou = segmentation_iou(processed.segments,
                                      stream.gesture_bounds);
  std::cout << "\n  mean best-overlap IoU vs truth: "
            << common::Table::pct(iou) << "\n";

  // Ablation: fixed threshold vs the dynamic (Otsu) threshold, across a
  // range of fixed levels — no single fixed level works across scenes,
  // which is the paper's motivation for DT.
  common::print_banner(std::cout,
                       "Ablation — fixed threshold vs dynamic threshold");
  common::Table table({"threshold", "segments", "IoU"});
  for (double fixed : {5.0, 20.0, 100.0, 500.0, 2000.0, 10000.0}) {
    std::vector<dsp::Segment> segs;
    bool inside = false;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < processed.energy.size(); ++i) {
      const bool above = processed.energy[i] > fixed;
      if (above && !inside) {
        inside = true;
        begin = i;
      } else if (!above && inside) {
        inside = false;
        if (i - begin >= 12) segs.push_back({begin, i});
      }
    }
    table.add_row({"fixed " + common::Table::num(fixed, 0),
                   std::to_string(segs.size()),
                   common::Table::pct(
                       segmentation_iou(segs, stream.gesture_bounds))});
  }
  table.add_row({"dynamic (DT)", std::to_string(processed.segments.size()),
                 common::Table::pct(iou)});
  table.print(std::cout);

  common::CsvWriter csv("fig05_stream.csv",
                        {"sample", "rss_sum", "delta_rss2", "in_segment"});
  for (std::size_t i = 0; i < sum.size(); ++i) {
    int inside = 0;
    for (const auto& seg : processed.segments)
      if (i >= seg.begin && i < seg.end) inside = 1;
    csv.write_row({std::to_string(i), common::Table::num(sum[i], 1),
                   common::Table::num(processed.energy[i], 1),
                   std::to_string(inside)});
  }
  std::cout << "\nWrote the stream series to fig05_stream.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
