// Quickstart: train an airFinger model bundle on synthesized data, round-trip
// it through the single-file artifact, and stream a few gestures through a
// Session built from the loaded copy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  common::Cli cli("quickstart",
                  "train an airFinger bundle and recognize a gesture mix");
  cli.add_flag("seed", "42", "master random seed");
  cli.add_flag("users", "3", "synthetic volunteers in the training set");
  cli.add_flag("reps", "6", "repetitions per gesture per session");
  if (!cli.parse(argc, argv)) return 0;

  std::cout << "airFinger quickstart\n"
            << "====================\n\n"
            << "Training models on synthesized NIR sensor data...\n";

  core::TrainerConfig trainer;
  trainer.users = static_cast<int>(cli.get_int("users"));
  trainer.sessions = 2;
  trainer.repetitions = static_cast<int>(cli.get_int("reps"));
  trainer.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  core::TrainingReport report;
  const auto trained = core::build_bundle(trainer, &report);

  std::cout << "  trained on " << report.gesture_samples
            << " gesture samples and " << report.non_gesture_samples
            << " non-gesture samples\n  selected features:";
  for (std::size_t i = 0; i < report.selected_feature_names.size(); ++i) {
    if (i % 6 == 0) std::cout << "\n    ";
    std::cout << report.selected_feature_names[i] << "  ";
  }

  // Round-trip through the versioned single-file artifact. On disk this is
  // `trained->save_file("models.af")` / `ModelBundle::load_file("models.af")`;
  // a stringstream keeps the example self-contained. Hex-float serialization
  // makes the loaded copy bit-identical to the trained one.
  std::stringstream artifact;
  trained->save(artifact);
  const auto bundle = core::ModelBundle::load(artifact);
  std::cout << "\n\nSaved + reloaded bundle ("
            << artifact.str().size() << " bytes, afbundle v"
            << core::ModelBundle::kFormatVersion << ").\n";

  std::cout << "\nStreaming a live gesture mix through a Session:\n";

  // A fresh user (not in the training roster) performs a mix of gestures.
  synth::CollectionConfig stream_config;
  stream_config.users = 1;
  stream_config.seed = trainer.seed ^ 0xD15C0;
  const std::vector<synth::MotionKind> sequence{
      synth::MotionKind::kCircle,     synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp,   synth::MotionKind::kDoubleRub,
      synth::MotionKind::kScrollDown, synth::MotionKind::kScratch,
      synth::MotionKind::kDoubleClick,
  };
  const synth::GestureStream stream = synth::make_gesture_stream(
      stream_config, sequence, stream_config.seed);

  std::cout << "  ground truth:";
  for (auto k : stream.kinds) std::cout << " [" << synth::motion_name(k) << "]";
  std::cout << "\n\n  session events:\n";

  // O(1) construction: the session shares the bundle's forests and only
  // allocates its own per-stream buffers.
  core::Session session(bundle);
  const auto events = session.process_trace(stream.trace);
  for (const auto& e : events) std::cout << "    " << e.describe() << "\n";

  std::cout << "\nDone: " << events.size() << " events from "
            << stream.trace.sample_count() << " frames ("
            << stream.trace.duration_s() << " s of signal).\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
