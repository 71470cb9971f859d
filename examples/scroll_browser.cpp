// Scroll browser: the paper's Sec. V-G demo — a real-time reading interface
// driven by track-aimed gestures. A synthetic user scrolls through an
// article with a mix of full and partial scrolls; ZEBRA's direction,
// velocity, and displacement drive the viewport, and the session ends with
// the tracking-fidelity rating of Table II.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/scroll_browser
#include <cmath>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

namespace {

/// A fake article: one line per "paragraph".
std::vector<std::string> make_article() {
  std::vector<std::string> lines;
  for (int i = 1; i <= 40; ++i)
    lines.push_back("¶ " + std::to_string(i) +
                    "  — lorem ipsum dolor sit amet, consectetur …");
  return lines;
}

void render_viewport(const std::vector<std::string>& article, double offset,
                     int height = 5) {
  const int top = std::clamp(
      static_cast<int>(offset), 0,
      static_cast<int>(article.size()) - height);
  std::cout << "  ┌──────────────────────────────────────────────────┐\n";
  for (int i = top; i < top + height; ++i)
    std::cout << "  │ " << article[static_cast<std::size_t>(i)] << "\n";
  std::cout << "  └─────────────────────────────── line " << top << "/"
            << article.size() << " ───┘\n";
}

}  // namespace

static int program(int argc, char** argv) {
  common::Cli cli("scroll_browser",
                  "drive a reading interface with track-aimed gestures");
  cli.add_flag("seed", "2024", "random seed");
  cli.add_flag("scrolls", "10", "number of scroll gestures in the session");
  if (!cli.parse(argc, argv)) return 0;

  std::cout << "Training the airFinger engine...\n";
  core::TrainerConfig trainer;
  trainer.users = 3;
  trainer.sessions = 2;
  trainer.repetitions = 8;
  trainer.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto bundle = core::build_bundle(trainer);

  // A fresh user scrolls through the article.
  synth::CollectionConfig config;
  config.users = 1;
  config.sessions = 1;
  config.repetitions = static_cast<int>(cli.get_int("scrolls"));
  config.kinds = {synth::MotionKind::kScrollUp,
                  synth::MotionKind::kScrollDown};
  config.seed = trainer.seed ^ 0x5C011;
  const auto session = synth::DatasetBuilder(config).collect();

  const auto article = make_article();
  double offset = 18.0;  // start mid-article
  // Displacement (metres) → article lines: an application-level mapping, as
  // the paper notes ("maps to different scales according to demands").
  const double lines_per_metre = 150.0;

  std::cout << "\nScrolling session — " << session.size()
            << " gestures:\n";
  int rated = 0;
  double rating_sum = 0.0;
  for (const auto& s : session.samples) {
    const auto v = core::run_sample(*bundle, s);
    std::cout << "\n  user performs: " << synth::motion_name(s.kind)
              << " (true displacement "
              << common::Table::num(s.scroll->displacement_m * 1000.0, 0)
              << " mm)\n";
    if (!v.scroll) {
      std::cout << "  engine: no scroll detected — viewport unchanged\n";
      render_viewport(article, offset);
      continue;
    }
    const double lines =
        v.scroll->final_displacement() * lines_per_metre;
    offset = std::clamp(offset - lines, 0.0,
                        static_cast<double>(article.size() - 5));
    std::cout << "  engine: scroll "
              << (v.scroll->direction > 0 ? "up" : "down") << ", v = "
              << common::Table::num(v.scroll->velocity_mps * 1000.0, 0)
              << " mm/s, moved "
              << common::Table::num(std::fabs(lines), 1) << " lines\n";
    render_viewport(article, offset);

    // Rating per Table II's surrogate scale.
    if (v.scroll->direction == s.scroll->direction) {
      const double rel = std::fabs(std::fabs(v.scroll->final_displacement()) -
                                   s.scroll->displacement_m) /
                         s.scroll->displacement_m;
      rating_sum += rel < 0.25 ? 3 : rel < 0.60 ? 2 : 1;
    } else {
      rating_sum += 1;
    }
    ++rated;
  }

  if (rated > 0)
    std::cout << "\nSession tracking rating: "
              << common::Table::num(rating_sum / rated, 1)
              << "/3.0 (paper's volunteers rated 2.6/3.0)\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
