// 2-D trackpad: the paper's Sec. VI multi-dimensional sensing area as an
// application. A synthetic finger swipes over the cross board in random
// directions; ZEBRA-2D moves a cursor on a character grid.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trackpad_2d
#include <cmath>
#include <iostream>
#include <numbers>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/zebra2d.hpp"
#include "sensor/recorder.hpp"
#include "synth/trajectory.hpp"

using namespace airfinger;

namespace {

constexpr double kPi = std::numbers::pi;

core::ProcessedTrace record_swipe(double angle_rad, common::Rng& rng) {
  optics::AmbientConditions ambient;
  ambient.hour_of_day = 10.0;
  const auto scene =
      optics::make_cross_scene({}, optics::AmbientModel(ambient));
  sensor::AdcSpec adc;
  adc.gain = 90.0;
  sensor::Recorder recorder(scene, sensor::AdcModel(adc), 100.0);

  const double standoff = rng.uniform(0.015, 0.021);
  const optics::Vec3 dir{std::cos(angle_rad), std::sin(angle_rad), 0.0};
  auto provider = [=](double t) {
    sensor::SceneState state;
    optics::ReflectorPatch finger;
    const double raw = std::clamp((t - 0.3) / 0.6, 0.0, 1.0);
    finger.position = dir * (-0.025 + 0.05 * synth::minimum_jerk(raw));
    finger.position.z = standoff;
    const double entry = std::max(0.0, 1.0 - raw / 0.2);
    const double exit = std::max(0.0, (raw - 0.8) / 0.2);
    finger.position.z += 0.025 * (entry * entry + exit * exit);
    state.patches.push_back(finger);
    return state;
  };
  const auto trace = recorder.record(provider, 1.2, rng);
  return core::DataProcessor{}.process(trace);
}

void render(int x, int y, int w, int h) {
  for (int row = h - 1; row >= 0; --row) {
    std::cout << "  ";
    for (int col = 0; col < w; ++col)
      std::cout << (col == x && row == y ? '@' : '.');
    std::cout << "\n";
  }
}

}  // namespace

static int program(int argc, char** argv) {
  common::Cli cli("trackpad_2d",
                  "drive a cursor with 2-D swipes over the cross board");
  cli.add_flag("seed", "99", "random seed");
  cli.add_flag("swipes", "8", "number of swipes");
  if (!cli.parse(argc, argv)) return 0;
  common::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  const core::Zebra2dTracker tracker;
  const int w = 21, h = 9;
  int x = w / 2, y = h / 2;
  std::cout << "2-D trackpad on the cross board (Sec. VI extension)\n";
  render(x, y, w, h);

  int correct = 0, total = 0;
  for (int i = 0; i < cli.get_int("swipes"); ++i) {
    const double angle =
        static_cast<double>(rng.below(8)) * kPi / 4.0 +
        rng.uniform(-0.1, 0.1);
    const auto p = record_swipe(angle, rng);
    const auto swipe = tracker.track(p, {0, p.energy.size()});
    std::cout << "\n  swipe at " << common::Table::num(angle * 180 / kPi, 0)
              << "°: ";
    ++total;
    if (!swipe) {
      std::cout << "not tracked\n";
      continue;
    }
    const int dx = static_cast<int>(std::lround(std::cos(swipe->angle_rad) * 3));
    const int dy = static_cast<int>(std::lround(std::sin(swipe->angle_rad) * 3));
    x = std::clamp(x + dx, 0, w - 1);
    y = std::clamp(y + dy, 0, h - 1);
    std::cout << "tracked "
              << common::Table::num(swipe->angle_rad * 180 / kPi, 0)
              << "°, cursor moves (" << dx << "," << dy << ")\n";
    double err = std::fabs(swipe->angle_rad - angle);
    while (err > kPi) err = std::fabs(err - 2 * kPi);
    if (err < kPi / 8) ++correct;
    render(x, y, w, h);
  }
  std::cout << "\n" << correct << "/" << total
            << " swipes tracked within ±22.5°.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
