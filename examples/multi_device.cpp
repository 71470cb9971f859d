// Multi-device serving: one trained ModelBundle, many concurrent wearables.
//
// Trains a bundle once, then spins up a MultiSessionHost with one Session
// per simulated device and fans frames to them round-robin — the shape a
// hub (phone, smart speaker) would use to serve several rings/wristbands
// with a single resident copy of the forests. The pump runs the sessions
// in parallel on the shared thread pool, and the drained events are
// bit-identical at any thread count (AF_THREADS).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/multi_device --devices 4
#include <iostream>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  common::Cli cli("multi_device",
                  "serve several simulated wearables from one model bundle");
  cli.add_flag("seed", "42", "master random seed");
  cli.add_flag("devices", "4", "simulated concurrent wearables");
  cli.add_flag("turn", "64", "frames fanned to each device per turn");
  if (!cli.parse(argc, argv)) return 0;

  const auto devices = static_cast<std::size_t>(cli.get_int("devices"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::cout << "airFinger multi-device serving\n"
            << "==============================\n\n"
            << "Training one shared bundle...\n";

  core::TrainerConfig trainer;
  trainer.seed = seed;
  const auto bundle = core::build_bundle(trainer);

  // Each device streams its own user's gesture mix; distinct seeds keep the
  // devices out of phase, like real independent wearers.
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,   synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp, synth::MotionKind::kScrollDown,
  };
  std::vector<sensor::MultiChannelTrace> traces;
  std::vector<std::vector<synth::MotionKind>> truth;
  for (std::size_t d = 0; d < devices; ++d) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = seed ^ (0xDEC0 + d);
    auto stream = synth::make_gesture_stream(config, mix, config.seed);
    truth.push_back(stream.kinds);
    traces.push_back(std::move(stream.trace));
  }

  std::cout << "Serving " << devices << " devices over "
            << common::resolve_thread_count() << " thread(s)...\n\n";

  core::MultiSessionHost host(bundle, devices);
  const auto events = host.run_round_robin(
      traces, static_cast<std::size_t>(cli.get_int("turn")));

  for (std::size_t d = 0; d < devices; ++d) {
    std::cout << "device " << d << " (truth:";
    for (auto k : truth[d]) std::cout << " " << synth::motion_name(k);
    std::cout << ")\n";
    for (const auto& e : events)
      if (e.session == d) std::cout << "    " << e.event.describe() << "\n";
  }

  std::cout << "\nDone: " << events.size() << " events from "
            << host.frames_processed() << " frames across " << devices
            << " sessions sharing one bundle.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
