// Shared harness for the paper-reproduction benches: common flags, dataset
// protocols, evaluation loops, and paper-vs-measured reporting.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "ml/metrics.hpp"
#include "synth/dataset.hpp"

namespace airfinger::bench {

/// Common bench flags: every bench accepts --seed, --users, --sessions,
/// --reps (so the full paper protocol `--users 10 --sessions 5 --reps 25`
/// can be requested; defaults are a faithful but faster reduction).
struct BenchArgs {
  std::uint64_t seed = 7;
  int users = 10;
  int sessions = 5;
  int reps = 8;
  bool parsed = true;
};

/// Parses the standard flags; returns nullopt when --help was printed.
std::optional<BenchArgs> parse_args(int argc, const char* const* argv,
                                    const std::string& name,
                                    const std::string& description,
                                    common::Cli* extra = nullptr);

/// Builds the paper's collection protocol with the bench scaling.
synth::CollectionConfig protocol(const BenchArgs& args);

/// Trains one frozen ModelBundle for serving-shaped benches (interactive
/// trainer scale, seeded from the bench args). The bundle is immutable and
/// shared: host benches spin up Sessions against it instead of retraining
/// or copying forests per stream.
std::shared_ptr<const core::ModelBundle> train_bundle(
    const BenchArgs& args, core::TrainingReport* report = nullptr);

/// Extracts the full-bank feature set for a dataset (batch processing,
/// ground-truth-guided segment choice — the paper's offline protocol).
ml::SampleSet featurize(const synth::Dataset& data,
                        core::LabelScheme scheme,
                        core::GroupScheme groups = core::GroupScheme::kNone);

/// Trains a fresh DetectRecognizer per split and accumulates one confusion
/// matrix over all splits (the paper's "average over all combinations").
ml::ConfusionMatrix cross_validate(const ml::SampleSet& set,
                                   const std::vector<ml::Split>& splits,
                                   core::LabelScheme scheme,
                                   bool verbose = true);

/// Prints the standard summary block (accuracy, macro recall/precision)
/// together with the paper's reported value for the same experiment.
void print_summary(const std::string& experiment,
                   const ml::ConfusionMatrix& cm, double paper_accuracy);

/// Prints a one-line paper-vs-measured comparison.
void print_comparison(const std::string& metric, double paper,
                      double measured);

}  // namespace airfinger::bench
