// Table II — performance summary: per-gesture accuracy of the detect-aimed
// gestures (5-fold CV), scroll-direction accuracy via ZEBRA, and the
// velocity/displacement rating.
//
// The paper's 1–3 rating came from volunteers watching a scrolling
// interface (2.6/3.0 average, 90% noticed no mismatch). Our objective
// surrogate keeps the scale: per scroll, 3 = reconstructed displacement
// within 25% of ground truth (fluent), 2 = within 60% (standard),
// 1 = worse or wrong direction (noticeable mismatch). Velocity is first
// calibrated with one global linear gain, matching the paper's "maps to
// different scales according to application demands".
#include <iostream>

#include "common/csv.hpp"
#include "core/trainer.hpp"
#include "core/zebra.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_table2_summary",
      "Table II: overall performance summary");
  if (!args) return 0;

  // --- Detect-aimed per-gesture accuracy (5-fold CV over all samples).
  const auto data = synth::DatasetBuilder(bench::protocol(*args)).collect();
  const auto set = bench::featurize(data, core::LabelScheme::kAllEight);
  common::Rng rng(args->seed ^ 0x7AB2);
  const auto splits = ml::stratified_kfold(set, 5, rng);
  std::cout << "running 5-fold CV over " << set.size() << " samples...\n";
  const auto cm = bench::cross_validate(set, splits,
                                        core::LabelScheme::kAllEight,
                                        /*verbose=*/false);

  // --- Track-aimed: ZEBRA direction + displacement rating on the scroll
  // samples through the full engine.
  core::TrainerConfig trainer;
  trainer.users = std::max(2, args->users / 2);
  trainer.sessions = 2;
  trainer.repetitions = args->reps;
  trainer.seed = args->seed ^ 0x2B2B;
  const auto bundle = core::build_bundle(trainer);

  // Direction accuracy is conditioned on a scroll verdict (the paper's
  // Sec. V-G measures direction recognition); the routing rate itself is
  // reported separately (and measured by bench_fig13).
  int up_total = 0, up_correct = 0, down_total = 0, down_correct = 0;
  int scrolls_seen = 0, scrolls_tracked = 0;
  std::vector<double> truth_v, measured_v;
  std::vector<const synth::GestureSample*> scored;
  std::vector<core::PipelineVerdict> verdicts;
  for (const auto& s : data.samples) {
    if (!synth::is_track_aimed(s.kind)) continue;
    const auto v = core::run_sample(*bundle, s);
    ++scrolls_seen;
    if (!v.scroll) continue;
    ++scrolls_tracked;
    const bool up = s.kind == synth::MotionKind::kScrollUp;
    (up ? up_total : down_total) += 1;
    if (v.scroll->direction == s.scroll->direction)
      (up ? up_correct : down_correct) += 1;
    if (v.scroll) {
      scored.push_back(&s);
      verdicts.push_back(v);
      if (!v.scroll->used_experience_velocity) {
        truth_v.push_back(s.scroll->mean_velocity_mps);
        measured_v.push_back(v.scroll->velocity_mps);
      }
    }
  }

  // One global velocity calibration gain (least-squares through origin).
  double gain = 1.0;
  if (!truth_v.empty()) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < truth_v.size(); ++i) {
      num += truth_v[i] * measured_v[i];
      den += measured_v[i] * measured_v[i];
    }
    if (den > 0.0) gain = num / den;
  }

  double rating_sum = 0.0;
  int rating_n = 0, fluent = 0;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    const auto& s = *scored[i];
    const auto& v = verdicts[i];
    int rating = 1;
    if (v.scroll->direction == s.scroll->direction) {
      const double measured_d =
          std::fabs(v.scroll->final_displacement()) * gain;
      const double truth_d = s.scroll->displacement_m;
      const double rel_err =
          truth_d > 0.0 ? std::fabs(measured_d - truth_d) / truth_d : 1.0;
      rating = rel_err < 0.25 ? 3 : rel_err < 0.60 ? 2 : 1;
    }
    rating_sum += rating;
    ++rating_n;
    if (rating >= 2) ++fluent;
  }

  // --- Assemble Table II.
  common::print_banner(std::cout, "Table II — performance summary");
  common::Table table({"", "gesture", "paper", "measured"});
  const double paper_acc[] = {0.9926, 0.9872, 0.9769, 0.9762,
                              0.9865, 0.9868};
  const auto names = core::class_names(core::LabelScheme::kAllEight);
  double detect_acc_sum = 0.0;
  for (int c = 0; c < 6; ++c) {
    table.add_row({c == 0 ? "Detect-aimed" : "",
                   names[static_cast<std::size_t>(c)],
                   common::Table::pct(paper_acc[c]),
                   common::Table::pct(cm.class_accuracy(c))});
    detect_acc_sum += cm.class_accuracy(c);
  }
  table.add_row({"", "average (detect)", "98.44%",
                 common::Table::pct(detect_acc_sum / 6.0)});
  const double up_acc =
      up_total ? static_cast<double>(up_correct) / up_total : 0.0;
  const double down_acc =
      down_total ? static_cast<double>(down_correct) / down_total : 0.0;
  table.add_row({"Track-aimed", "scroll up direction", "99.88%",
                 common::Table::pct(up_acc)});
  table.add_row({"", "scroll down direction", "99.26%",
                 common::Table::pct(down_acc)});
  table.add_row({"", "average (track)", "99.57%",
                 common::Table::pct((up_acc + down_acc) / 2.0)});
  const double rating =
      rating_n ? rating_sum / static_cast<double>(rating_n) : 0.0;
  table.add_row({"Track-aimed", "routed to tracker", "-",
                 common::Table::pct(scrolls_seen
                                        ? static_cast<double>(scrolls_tracked) /
                                              scrolls_seen
                                        : 0.0)});
  table.add_row({"Tracking", "velocity & displacement rating", "2.6/3.0",
                 common::Table::num(rating, 1) + "/3.0"});
  const double summary =
      (detect_acc_sum / 6.0) * 6.0 / 8.0 + (up_acc + down_acc) / 8.0;
  table.add_row({"Summary", "average accuracy (8 gestures)", "98.72%",
                 common::Table::pct(summary)});
  table.print(std::cout);
  std::cout << "  " << fluent << "/" << rating_n
            << " scrolls rated >= standard (paper: 90% felt no "
               "mismatch)\n  velocity calibration gain: "
            << common::Table::num(gain, 2) << "\n";

  common::CsvWriter csv("table2_summary.csv", {"metric", "paper",
                                               "measured"});
  for (int c = 0; c < 6; ++c)
    csv.write_row({names[static_cast<std::size_t>(c)],
                   common::Table::num(paper_acc[c], 4),
                   common::Table::num(cm.class_accuracy(c), 4)});
  csv.write_row({"scroll_up_dir", "0.9988", common::Table::num(up_acc, 4)});
  csv.write_row(
      {"scroll_down_dir", "0.9926", common::Table::num(down_acc, 4)});
  csv.write_row({"rating", "2.6", common::Table::num(rating, 2)});
  std::cout << "Wrote table2_summary.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
