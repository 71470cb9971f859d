// Microbenchmarks (google-benchmark) backing the paper's real-time and
// processing-efficiency claims: per-sample SBC cost, segmentation,
// feature extraction, RF inference, ZEBRA tracking, and the full streaming
// frame path — plus the SBC-window and forest-size ablations from
// DESIGN.md §5.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/parallel.hpp"
#include "core/data_processor.hpp"
#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "core/zebra.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "features/bank.hpp"
#include "ml/random_forest.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

namespace {

const synth::Dataset& sample_data() {
  static const synth::Dataset data = [] {
    synth::CollectionConfig config;
    config.users = 1;
    config.sessions = 1;
    config.repetitions = 2;
    config.seed = 0xBE7C;
    return synth::DatasetBuilder(config).collect();
  }();
  return data;
}

/// The dataset the thread-scaling benchmarks synthesize and fit.
synth::CollectionConfig scaling_config() {
  synth::CollectionConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 4;
  config.seed = 0xBE7C;
  return config;
}

const synth::GestureSample& scroll_sample() {
  for (const auto& s : sample_data().samples)
    if (s.kind == synth::MotionKind::kScrollUp) return s;
  return sample_data().samples.front();
}

}  // namespace

// --- SBC per sample (the paper claims O(n); this is the per-frame cost).
static void BM_SbcPush(benchmark::State& state) {
  dsp::SquareBasedCalculator sbc(static_cast<std::size_t>(state.range(0)));
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sbc.push(v));
    v += 1.0;
  }
}
BENCHMARK(BM_SbcPush)->Arg(1)->Arg(5)->Arg(25);

// --- Streaming segmenter per sample.
static void BM_SegmenterPush(benchmark::State& state) {
  dsp::DynamicThresholdSegmenter seg{dsp::SegmenterConfig{}};
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg.push(rng.uniform(0.0, 100.0)));
  }
}
BENCHMARK(BM_SegmenterPush);

// --- Batch segmentation of a full trace.
static void BM_BatchSegmentation(benchmark::State& state) {
  const auto& s = sample_data().samples.front();
  const core::DataProcessor proc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proc.process(s.trace));
  }
}
BENCHMARK(BM_BatchSegmentation);

// --- Feature extraction for one segment.
static void BM_FeatureExtraction(benchmark::State& state) {
  const auto& s = sample_data().samples.front();
  const core::DataProcessor proc;
  const auto p = proc.process(s.trace);
  const auto seg = core::DataProcessor::select_segment(p, 0,
                                                       p.energy.size());
  std::vector<std::span<const double>> windows;
  for (const auto& ch : p.delta_rss2)
    windows.emplace_back(ch.data() + seg.begin, seg.length());
  const features::FeatureBank bank;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bank.extract(std::span<const std::span<const double>>(windows)));
  }
}
BENCHMARK(BM_FeatureExtraction);

// --- RF inference across forest sizes (the forest-size ablation).
static void BM_ForestPredict(benchmark::State& state) {
  const auto& data = sample_data();
  const core::DataProcessor proc;
  const features::FeatureBank bank;
  const auto set = core::build_feature_set(data, proc, bank,
                                           core::LabelScheme::kAllEight);
  ml::RandomForestConfig config;
  config.num_trees = static_cast<std::size_t>(state.range(0));
  ml::RandomForest forest(config);
  forest.fit(set);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(set.features[i]));
    i = (i + 1) % set.size();
  }
}
BENCHMARK(BM_ForestPredict)->Arg(10)->Arg(50)->Arg(150);

// --- ZEBRA tracking of one scroll segment.
static void BM_ZebraTrack(benchmark::State& state) {
  const auto& s = scroll_sample();
  const core::DataProcessor proc;
  const auto p = proc.process(s.trace);
  const auto seg = core::DataProcessor::select_segment(p, 0,
                                                       p.energy.size());
  const core::ZebraTracker zebra;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zebra.track(p, seg));
  }
}
BENCHMARK(BM_ZebraTrack);

namespace {

/// The small trained bundle the streaming-path benchmarks serve.
const std::shared_ptr<const core::ModelBundle>& serving_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 4;
    config.seed = 0xE11;
    return core::build_bundle(config);
  }();
  return bundle;
}

}  // namespace

// --- Full streaming frame path (the real-time budget: must be far below
// the 10 ms frame interval of the 100 Hz prototype). One hot Session.
static void BM_EnginePushFrame(benchmark::State& state) {
  static core::Session engine(serving_bundle());
  const auto& s = sample_data().samples.front();
  std::vector<double> frame(3);
  std::size_t i = 0;
  std::size_t events = 0;
  const auto sink = [&events](const core::GestureEvent&) { ++events; };
  for (auto _ : state) {
    for (std::size_t c = 0; c < 3; ++c)
      frame[c] = s.trace.channel(c)[i];
    engine.push_frame(frame, sink);
    i = (i + 1) % s.trace.sample_count();
    if (i == 0) {
      state.PauseTiming();
      engine.reset();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(events);
}
BENCHMARK(BM_EnginePushFrame);

// --- The same frames served round-robin by an inline-mode host: one frame
// per lane per tick, drained by pump() at the end of the tick, as a paced
// 100 Hz server does. Every lane replays BM_EnginePushFrame's fixed-seed
// recording, each from its own staggered offset, so the frame mix is the
// same and /N ÷ BM_EnginePushFrame is what N lanes' cold per-stream state
// (plus the host's per-frame mechanics) costs over one hot session.
static void BM_HostRoundRobin(benchmark::State& state) {
  const sensor::MultiChannelTrace& trace = sample_data().samples.front().trace;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  core::HostConfig host_config;
  host_config.shards = 1;
  core::MultiSessionHost host(serving_bundle(), lanes,
                              serving_bundle()->config().fault_policy,
                              host_config);
  const std::size_t channels = trace.channel_count();
  std::vector<std::size_t> cursor(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    cursor[i] = (i * 97) % trace.sample_count();
  std::vector<double> frame(channels);
  std::size_t lane = 0;
  std::size_t since_drain = 0;
  for (auto _ : state) {
    for (std::size_t c = 0; c < channels; ++c)
      frame[c] = trace.channel(c)[cursor[lane]];
    if (++cursor[lane] == trace.sample_count()) cursor[lane] = 0;
    host.feed(lane, frame);
    if (++lane == lanes) {
      lane = 0;
      host.pump();
      // Hand the (rare) emissions off every few thousand frames.
      if ((since_drain += lanes) >= 4096) {
        since_drain = 0;
        benchmark::DoNotOptimize(host.drain());
      }
    }
  }
}
BENCHMARK(BM_HostRoundRobin)->Arg(1)->Arg(16)->Arg(512)->Arg(2000);

// --- Dataset synthesis cost (substrate throughput).
static void BM_SynthesizeSample(benchmark::State& state) {
  synth::CollectionConfig config;
  config.users = 1;
  config.sessions = 1;
  config.repetitions = 1;
  config.kinds = {synth::MotionKind::kCircle};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(synth::DatasetBuilder(config).collect());
  }
}
BENCHMARK(BM_SynthesizeSample);

// --- Thread scaling of the two dominant offline costs, dataset synthesis
// and a 100-tree forest fit, at 1, 2 and 4 pool threads (wall clock). The
// determinism suite guarantees the outputs are bit-identical across these
// runs; the timings show what the parallel substrate buys.
static void BM_SynthesizeDataset(benchmark::State& state) {
  const synth::CollectionConfig config = scaling_config();
  common::ScopedThreads threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(synth::DatasetBuilder(config).collect());
}
BENCHMARK(BM_SynthesizeDataset)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void BM_ForestFit(benchmark::State& state) {
  // Featurized once, outside the timed loop.
  static const auto set = core::build_feature_set(
      synth::DatasetBuilder(scaling_config()).collect(),
      core::DataProcessor{}, features::FeatureBank{},
      core::LabelScheme::kAllEight);
  ml::RandomForestConfig config;
  config.num_trees = 100;
  common::ScopedThreads threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.fit(set);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestFit)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

BENCHMARK_MAIN();
