// Fig. 3 — characteristic RSS readings of the eight gestures.
//
// Regenerates the paper's waveform gallery: one repetition of each gesture,
// rendered as an ASCII plot of the summed RSS and written to CSV for
// re-plotting. The qualitative shapes to verify against the paper: smooth
// periodic modulation for circle (twice for double circle), fast bursty
// oscillation for rub, one/two sharp spikes for click/double click, and a
// single travelling hump for the scrolls.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

namespace {

void ascii_plot(std::span<const double> y, std::size_t rows = 12,
                std::size_t cols = 72) {
  const double lo = common::min(y), hi = common::max(y);
  const double span = hi > lo ? hi - lo : 1.0;
  std::vector<std::string> grid(rows, std::string(cols, ' '));
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t i = c * (y.size() - 1) / (cols - 1);
    const auto r = static_cast<std::size_t>(
        (1.0 - (y[i] - lo) / span) * static_cast<double>(rows - 1));
    grid[r][c] = '*';
  }
  for (const auto& row : grid) std::cout << "  |" << row << "\n";
  std::cout << "  +" << std::string(cols, '-') << "\n";
}

}  // namespace

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig03_waveforms",
      "Fig. 3: characteristic RSS readings of the eight gestures");
  if (!args) return 0;

  synth::CollectionConfig config = bench::protocol(*args);
  config.users = 1;
  config.sessions = 1;
  config.repetitions = 1;
  config.partial_scroll_probability = 0.0;
  const auto data = synth::DatasetBuilder(config).collect();

  common::CsvWriter csv("fig03_waveforms.csv",
                        {"gesture", "sample", "rss_sum", "p1", "p2", "p3"});
  for (const auto& s : data.samples) {
    common::print_banner(std::cout,
                         std::string("Fig. 3 — ") +
                             std::string(synth::motion_name(s.kind)));
    const auto sum = s.trace.summed();
    const double rate = s.trace.sample_rate_hz();
    const auto g0 = static_cast<std::size_t>(s.gesture_start_s * rate);
    const auto g1 = std::min<std::size_t>(
        static_cast<std::size_t>(s.gesture_end_s * rate), sum.size());
    ascii_plot(std::span<const double>(sum.data() + g0, g1 - g0));
    for (std::size_t i = 0; i < sum.size(); ++i)
      csv.write_row({std::string(synth::motion_name(s.kind)),
                     std::to_string(i), common::Table::num(sum[i], 1),
                     common::Table::num(s.trace.channel(0)[i], 1),
                     common::Table::num(s.trace.channel(1)[i], 1),
                     common::Table::num(s.trace.channel(2)[i], 1)});
  }
  std::cout << "\nWrote per-sample series to fig03_waveforms.csv ("
            << csv.rows_written() << " rows).\n"
            << "Shape check vs the paper: circle/double circle smooth and "
               "periodic, rub/double rub fast bursts,\nclick/double click "
               "one/two sharp spikes, scrolls a single travelling hump.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
